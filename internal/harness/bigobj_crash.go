package harness

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/fault"
	"znscache/internal/sim"
)

// Crash consistency for chunked large objects. The engine-level oracle
// (RunCrash) proves single-value recovery; bigobj adds a failure mode of its
// own: a manifest can survive restore while some of its chunks were lost to
// the crash (unflushed region, quarantine, snapshot repair). Serving such an
// object as a short or spliced read would be wrong data at object scale even
// though every surviving engine value is individually intact. The contract
// under test: after restore, every object acknowledged at the snapshot cut
// is either served whole (matching an acknowledged version) or counted lost
// as one object — never a short read, never a cross-generation splice.

// BigObjCrashParams configures one run. The embedded CrashParams carries the
// scheme, seed, op budgets, and fault rates (CorruptSnapshot is not
// supported here — the engine-level oracle owns that check; chunked-object
// loss is produced by the crash itself).
type BigObjCrashParams struct {
	CrashParams
	// ChunkSize is the bigobj chunk payload size (default 8 KiB — small
	// against the 64 KiB crash-rig regions so objects span regions and
	// partial chunk loss is common).
	ChunkSize int
	// EagerRepair runs Store.Repair over the restored snapshot's keys
	// before the oracle replay (the recovery-time sweep); false leaves
	// detection to the lazy read path. Both must satisfy the oracle.
	EagerRepair bool
}

// BigObjCrashReport is the oracle's verdict.
type BigObjCrashReport struct {
	Scheme Scheme
	Seed   uint64
	// Crashed reports whether the armed crash fired within the op budget.
	Crashed     bool
	CrashWrites uint64
	// Hits/Lost partition the objects acknowledged at the snapshot cut:
	// served whole with an acknowledged version, or dropped (whole-object
	// miss / clean partial-object failure).
	Hits, Lost int
	// WrongData counts objects served with bytes matching no acknowledged
	// version — including short reads. Must be zero.
	WrongData int
	// PartialFailures is how many lost objects failed through the clean
	// partial-object path (manifest present, chunks gone) rather than a
	// whole-object miss.
	PartialFailures int
	// Repairs is the number of manifests dropped (eager sweep + lazy read
	// path) on the restored store.
	Repairs      uint64
	RestoreDrops uint64
	// SubChunkAcked and OneChunkAcked count the objects acknowledged at the
	// snapshot cut that are shorter than one chunk or exactly one chunk:
	// objects that live wholly in their manifest value.
	SubChunkAcked, OneChunkAcked int
	// MidPutCrash reports that the crash fired during a chunk write of a
	// multi-chunk put, so before that put's manifest write.
	MidPutCrash bool
}

// crashProbe is the pre-crash store's backend: the rig's engine, noting
// whether the crash fired during a chunk write ("<objkey>/<n>"), which only
// multi-chunk puts make and make before their manifest.
type crashProbe struct {
	*cache.Cache
	faults *fault.Injector
	midPut bool
}

func (c *crashProbe) SetTTL(key string, value []byte, valLen int, ttl time.Duration) error {
	was := c.faults.Crashed()
	err := c.Cache.SetTTL(key, value, valLen, ttl)
	c.midPut = c.midPut || !was && c.faults.Crashed() && strings.Contains(key, "/")
	return err
}

// Err folds the report into a pass/fail error.
func (r *BigObjCrashReport) Err() error {
	if r.WrongData > 0 {
		return fmt.Errorf("harness: bigobj %v seed %d: %d objects served wrong or short data",
			r.Scheme, r.Seed, r.WrongData)
	}
	return nil
}

// RunBigObjCrash executes one seeded crash-consistency run over the chunked
// object layer. Identical params replay identical runs.
func RunBigObjCrash(p BigObjCrashParams) (*BigObjCrashReport, error) {
	rep, _, err := runBigObjCrash(p)
	return rep, err
}

// runBigObjCrash is RunBigObjCrash, also returning the rig whose Engine is
// the restored one.
func runBigObjCrash(p BigObjCrashParams) (*BigObjCrashReport, *Rig, error) {
	p.fillDefaults()
	if p.Keys > 24 {
		// Objects are 1-2 orders larger than the engine oracle's values;
		// a smaller catalog keeps the tiny crash rig churning instead of
		// thrashing.
		p.Keys = 24
	}
	if p.ChunkSize == 0 {
		p.ChunkSize = 8 << 10
	}
	p.Faults.Seed = p.Seed
	rig, err := Build(crashRigConfig(p.CrashParams))
	if err != nil {
		return nil, nil, fmt.Errorf("harness: bigobj crash rig: %w", err)
	}
	probe := &crashProbe{Cache: rig.Engine, faults: rig.Faults}
	store, err := bigobj.New(bigobj.Config{
		Backend: probe, ChunkSize: p.ChunkSize, Clock: rig.Clock,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: bigobj crash store: %w", err)
	}

	rng := sim.NewRand(p.Seed ^ 0xb10b0b1ec7a5a5a5)
	rep := &BigObjCrashReport{Scheme: p.Scheme, Seed: p.Seed}

	keyOf := func(i int) string { return fmt.Sprintf("obj-%03d", i) }
	value := func() []byte {
		// A quarter of the objects fit one chunk (half of those exactly),
		// so their manifest carries them whole; the rest run 1-5 chunks
		// with ragged tails, and most of those span regions.
		n := p.ChunkSize + rng.Intn(4*p.ChunkSize) + rng.Intn(1000)
		switch rng.Intn(8) {
		case 0:
			n = 1 + rng.Intn(p.ChunkSize-1)
		case 1:
			n = p.ChunkSize
		}
		b := make([]byte, n)
		rng.Bytes(b)
		return b
	}
	acked := make(map[string][]byte, p.Keys)
	writeOne := func(record map[string][][]byte) {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		if err := store.Put(k, bytes.NewReader(v), 0); err == nil {
			acked[k] = v
			if record != nil {
				record[k] = append(record[k], v)
			}
		}
	}

	// Phase 1: warm. Puts are chunk streams, so the warm budget is spent
	// in objects, not engine ops.
	warmPuts := p.WarmOps / 5
	if warmPuts < 20 {
		warmPuts = 20
	}
	for i := 0; i < warmPuts; i++ {
		writeOne(nil)
	}

	snap, err := rig.Engine.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: bigobj snapshot: %w", err)
	}
	atSnap := make(map[string][]byte, len(acked))
	for k, v := range acked {
		atSnap[k] = v
		switch {
		case len(v) < p.ChunkSize:
			rep.SubChunkAcked++
		case len(v) == p.ChunkSize:
			rep.OneChunkAcked++
		}
	}
	afterSnap := make(map[string][][]byte, p.Keys)

	// Phase 2: arm the crash and write into it.
	w0 := rig.Faults.Writes()
	span := int(w0 / 2)
	if span < 2 {
		span = 2
	}
	rig.Faults.ArmCrash(w0 + 1 + uint64(rng.Intn(span)))
	for i := 0; i < p.MaxPostOps/5 && !rig.Faults.Crashed(); i++ {
		writeOne(afterSnap)
	}
	rep.Crashed = rig.Faults.Crashed()
	rep.CrashWrites = rig.Faults.Writes()
	rep.MidPutCrash = probe.midPut

	// The process dies; restore over the surviving device state.
	rig.Faults.Revive()
	if err := rig.Restore(snap); err != nil {
		return nil, nil, fmt.Errorf("harness: bigobj restore: %w", err)
	}
	rstore, err := bigobj.New(bigobj.Config{
		Backend: rig.Engine, ChunkSize: p.ChunkSize, Clock: rig.Clock,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: bigobj restored store: %w", err)
	}
	rep.RestoreDrops = rig.Engine.Stats().RestoreDrops

	if p.EagerRepair {
		keys, err := cache.SnapshotKeys(snap)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: snapshot keys: %w", err)
		}
		// Chunk keys fail the manifest decode and are skipped; only
		// object keys are candidates.
		rstore.Repair(keys)
	}

	// Oracle replay in fixed order.
	keys := make([]string, 0, len(atSnap))
	for k := range atSnap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rr, err := rstore.NewRangeReader(k, 0, -1)
		if err != nil {
			rep.Lost++
			continue
		}
		data, rerr := io.ReadAll(rr)
		rr.Close()
		if rerr != nil {
			// Clean partial-object failure: manifest outlived its chunks
			// and the read refused to serve a short object.
			rep.Lost++
			rep.PartialFailures++
			continue
		}
		if matchesOracle(data, atSnap[k], afterSnap[k]) {
			rep.Hits++
		} else {
			rep.WrongData++
		}
	}

	// The restored store must keep serving chunked objects.
	for i := 0; i < 8; i++ {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		if err := rstore.Put(k, bytes.NewReader(v), 0); err != nil {
			return nil, nil, fmt.Errorf("harness: post-recovery bigobj Put: %w", err)
		}
		got := make([]byte, len(v))
		if _, err := rstore.ReadAt(k, got, 0); err != nil {
			return nil, nil, fmt.Errorf("harness: post-recovery bigobj ReadAt: %w", err)
		}
		if !bytes.Equal(got, v) {
			return nil, nil, fmt.Errorf("harness: post-recovery bigobj read mismatch")
		}
	}

	rep.Repairs = rstore.Stats().ManifestRepairs
	return rep, rig, nil
}
