package harness

import (
	"fmt"
	"reflect"
	"testing"

	"znscache/internal/fault"
)

// crashFaults is the transient-fault mix the property test runs under:
// every fault class armed at rates high enough to fire many times per run.
func crashFaults() fault.Config {
	return fault.Config{
		ReadErrorRate:    0.01,
		WriteErrorRate:   0.02,
		ResetErrorRate:   0.01,
		TornWriteRate:    0.02,
		LatencySpikeRate: 0.01,
	}
}

// TestCrashConsistencyProperty is the seeded property test of the recovery
// contract: across all four schemes and many seeds, a crash at a random
// device-write count followed by a snapshot restore never serves wrong
// data and never violates the ZNS zone contract. Region-Cache runs once
// more with a warm-up long enough to cycle the cache, so its co-design GC
// drops regions the snapshot still indexes between the cut and the crash.
// Failures print the (scheme, seed, warm-up) triple, which replays the
// exact run.
func TestCrashConsistencyProperty(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for _, sch := range AllSchemes {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			t.Parallel()
			warmUps := []int{0} // the default
			if sch == RegionCache {
				warmUps = append(warmUps, 1500)
			}
			var runs, crashed, lost, drops, gcDrops int
			for _, warm := range warmUps {
				for i := 0; i < iters; i++ {
					seed := uint64(i)*0x9e3779b9 + 1
					rep, err := RunCrash(CrashParams{Scheme: sch, Seed: seed, WarmOps: warm, Faults: crashFaults()})
					if err != nil {
						t.Fatalf("seed %d warm %d: %v", seed, warm, err)
					}
					if err := rep.Err(); err != nil {
						t.Errorf("seed %d warm %d: %v", seed, warm, err)
					}
					runs++
					if rep.Crashed {
						crashed++
					}
					lost += rep.Lost
					drops += int(rep.RestoreDrops)
					gcDrops += int(rep.GCDrops)
				}
			}
			// The test must not pass vacuously: the crash point has to fire
			// in most runs, recovery has to be actually lossy sometimes
			// (keys lost, snapshot entries dropped by the repair pass), and
			// Region-Cache's GC has to drop regions after the cut.
			if crashed < runs/2 {
				t.Errorf("only %d/%d runs reached their crash point", crashed, runs)
			}
			if lost == 0 {
				t.Error("no run lost a key; the harness is not exercising recovery")
			}
			if sch == RegionCache && (gcDrops == 0 || drops == 0) {
				t.Errorf("GC dropped %d regions between cut and crash, restore dropped %d entries: "+
					"the drill never recovers over co-design drops", gcDrops, drops)
			}
		})
	}
}

// TestCrashRunDeterministic verifies a (scheme, seed) pair replays the
// exact same report — the property a failing seed's bug report rests on.
func TestCrashRunDeterministic(t *testing.T) {
	p := CrashParams{Scheme: RegionCache, Seed: 12345, Faults: crashFaults()}
	a, err := RunCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same params, different reports:\n%+v\n%+v", a, b)
	}
}

// TestCrashRestoreKeepsBuildConfig: both drills restore through the rig, so
// the recovered engine evicts in the order Build chose (FIFO), not in the
// engine package's default (LRU).
func TestCrashRestoreKeepsBuildConfig(t *testing.T) {
	for _, sch := range AllSchemes {
		_, rig, err := runCrash(CrashParams{Scheme: sch, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !evictsOldestFirst(t, rig) {
			t.Errorf("%v: the engine RunCrash restored keeps a just-read region past its turn", sch)
		}
		_, rig, err = runBigObjCrash(BigObjCrashParams{CrashParams: CrashParams{Scheme: sch, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if !evictsOldestFirst(t, rig) {
			t.Errorf("%v: the engine RunBigObjCrash restored keeps a just-read region past its turn", sch)
		}
	}
}

// evictsOldestFirst fills rig's engine twice over with one item per region,
// reads the oldest item left and writes one more: FIFO evicts the item just
// read, LRU keeps it.
func evictsOldestFirst(t *testing.T, rig *Rig) bool {
	t.Helper()
	eng := rig.Engine
	val := make([]byte, eng.RegionSize()/2) // two items never share a region
	key := func(i int) string { return fmt.Sprintf("probe-%04d", i) }
	n := 2 * rig.Store.NumRegions()
	for i := 0; i < n; i++ {
		if err := eng.Set(key(i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	oldest := 0
	for !eng.Contains(key(oldest)) {
		oldest++
	}
	if _, hit, err := eng.Get(key(oldest)); !hit || err != nil {
		t.Fatalf("Get(%s) = %v, %v", key(oldest), hit, err)
	}
	if err := eng.Set(key(n), val, 0); err != nil {
		t.Fatal(err)
	}
	return !eng.Contains(key(oldest))
}

// TestCrashHarnessDetectsBrokenRepair is the mutation check: corrupt the
// snapshot's recovery metadata in a structurally valid way and disable the
// checksum (the deliberately broken repair path), and the oracle MUST
// report wrong data on at least one seed — proving the property test's
// pass is meaningful.
func TestCrashHarnessDetectsBrokenRepair(t *testing.T) {
	for _, sch := range []Scheme{RegionCache, ZoneCache, FileCache, BlockCache} {
		detected := false
		for seed := uint64(1); seed <= 8 && !detected; seed++ {
			rep, err := RunCrash(CrashParams{Scheme: sch, Seed: seed, CorruptSnapshot: true})
			if err != nil {
				t.Fatalf("%v seed %d: %v", sch, seed, err)
			}
			if rep.WrongData > 0 {
				detected = true
			}
		}
		if !detected {
			t.Errorf("%v: corrupted snapshot + disabled checksum produced no WrongData in 8 seeds; the oracle cannot detect wrong data", sch)
		}
	}
}

// TestCrashDegradationCounters checks the run surfaces the engine's
// degradation machinery: with aggressive fault rates, retries fire.
func TestCrashDegradationCounters(t *testing.T) {
	f := crashFaults()
	f.WriteErrorRate = 0.15
	f.ReadErrorRate = 0.10
	var retries uint64
	for seed := uint64(1); seed <= 6; seed++ {
		rep, err := RunCrash(CrashParams{Scheme: ZoneCache, Seed: seed, Faults: f})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		retries += rep.Retries
	}
	if retries == 0 {
		t.Error("aggressive fault rates produced zero store retries")
	}
}
