package harness

import (
	"fmt"
	"reflect"
	"sync"
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

// TestCrashRunDeterministic verifies a value run, and
// TestBigObjCrashDeterminism a chunked-object run, replays the exact same
// report — the property a failing seed's bug report rests on.
func TestCrashRunDeterministic(t *testing.T) {
	assertCrashDeterministic(t, CrashParams{Scheme: RegionCache, Seed: 12345, Faults: crashFaults()})
}
func TestBigObjCrashDeterminism(t *testing.T) {
	assertCrashDeterministic(t, CrashParams{Scheme: RegionCache, Seed: 99, ChunkSize: 8 << 10})
}

func assertCrashDeterministic(t *testing.T, p CrashParams) {
	t.Helper()
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

// TestCrashRestoreKeepsBuildConfig: the drill restores through the rig, so
// the recovered engine evicts in the order Build chose (FIFO), not in the
// engine package's default (LRU), for either subject.
func TestCrashRestoreKeepsBuildConfig(t *testing.T) {
	for _, sch := range AllSchemes {
		for _, chunk := range []int{0, 8 << 10} {
			_, rig, err := runCrash(CrashParams{Scheme: sch, Seed: 3, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if !evictsOldestFirst(t, rig) {
				t.Errorf("%v chunk %d: the restored engine keeps a just-read region past its turn", sch, chunk)
			}
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
			detected = rep.WrongData > 0
		}
		if !detected {
			t.Errorf("%v: corrupted snapshot + disabled checksum produced no WrongData in 8 seeds; the oracle cannot detect wrong data", sch)
		}
	}
	// An object run refuses the mutation rather than running without it.
	if _, err := RunCrash(CrashParams{Scheme: RegionCache, Seed: 1, ChunkSize: 8 << 10, CorruptSnapshot: true}); err == nil {
		t.Error("CorruptSnapshot with ChunkSize > 0 ran")
	}
}

// TestBigObjCrashOracle drills chunked objects across schemes × repair
// modes × warm-up budgets × seeds: every object acknowledged at the cut is
// served whole or counted lost, and the zone contract holds. At the default
// budget, objects that live wholly in their manifest (shorter than a chunk,
// and exactly one) are acknowledged at the cut, and some crash falls
// between a multi-chunk put's chunk writes and its manifest write. At
// WarmOps 500 (100 object puts) the cache has cycled, so the post-cut
// writes evict chunk regions the snapshot indexes: Region-Cache's restore
// drops entries, and a manifest can outlive a chunk. Few seeds show that,
// so this budget runs more of them, and across the drill some lazy run must
// take the partial-object path and some eager run must repair a manifest.
// The budget also runs lazily under crashFaults, where some object must
// come back partial.
func TestBigObjCrashOracle(t *testing.T) {
	var mu sync.Mutex
	var subChunk, oneChunk, midPut, lazyPartial, faultedPartial, eagerRepair, regionDrops int
	t.Cleanup(func() { // runs once every parallel subtest is done
		if subChunk == 0 || oneChunk == 0 {
			t.Errorf("acknowledged at the cut: %d sub-chunk and %d one-chunk objects, want both > 0", subChunk, oneChunk)
		}
		if midPut == 0 {
			t.Error("no crash fell between a multi-chunk put's chunk writes and its manifest write")
		}
		if lazyPartial == 0 || faultedPartial == 0 || eagerRepair == 0 || regionDrops == 0 {
			t.Errorf("runs with partial failures: %d lazy, %d faulted; %d eager runs with repairs, %d Region-Cache runs with restore drops; want each > 0",
				lazyPartial, faultedPartial, eagerRepair, regionDrops)
		}
	})
	seeds, cycled := []uint64{1, 7, 23}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, sch := range AllSchemes {
		for _, c := range []struct {
			name          string
			warm          int
			eager, faults bool // faulted runs are lazy
			seeds         []uint64
		}{
			{"lazy", 0, false, false, seeds}, {"eager", 0, true, false, seeds},
			{"cycled-lazy", 500, false, false, cycled}, {"cycled-eager", 500, true, false, cycled},
			{"cycled-faulted", 500, false, true, cycled},
		} {
			for _, seed := range c.seeds {
				p := CrashParams{Scheme: sch, Seed: seed, WarmOps: c.warm, ChunkSize: 8 << 10, EagerRepair: c.eager}
				if c.faults {
					p.Faults = crashFaults()
				}
				t.Run(fmt.Sprintf("%v/%s/%d", sch, c.name, seed), func(t *testing.T) {
					t.Parallel()
					rep, err := RunCrash(p)
					if err != nil {
						t.Fatalf("RunCrash: %v", err)
					}
					if !rep.Crashed {
						t.Fatalf("crash never fired (writes=%d)", rep.CrashWrites)
					}
					if err := rep.Err(); err != nil {
						t.Fatalf("oracle: %v (hits=%d lost=%d partial=%d repairs=%d)",
							err, rep.Hits, rep.Lost, rep.PartialFailures, rep.Repairs)
					}
					if rep.Hits+rep.Lost == 0 {
						t.Fatal("oracle replayed zero objects")
					}
					mu.Lock()
					subChunk += rep.SubChunkAcked
					oneChunk += rep.OneChunkAcked
					if rep.MidPutCrash {
						midPut++
					}
					if c.eager && rep.Repairs > 0 {
						eagerRepair++
					}
					if !c.eager && rep.PartialFailures > 0 && c.faults {
						faultedPartial++
					}
					if !c.eager && rep.PartialFailures > 0 && !c.faults {
						lazyPartial++
					}
					if sch == RegionCache && rep.RestoreDrops > 0 {
						regionDrops++
					}
					mu.Unlock()
					if p.EagerRepair && rep.PartialFailures > 0 { // the sweep ran before the replay
						t.Errorf("eager repair left %d lazy partial failures", rep.PartialFailures)
					}
				})
			}
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
