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

// Crash-consistency drill. A persistent cache's recovery contract is
// asymmetric: after a crash it may forget acknowledged keys (a miss is
// always correct), but a hit must return exactly a value the client wrote.
// The drill runs a seeded workload against a fault-injected rig, kills the
// simulated process at a seeded device-write count, rebuilds the engine
// from the last snapshot over the surviving device state (zone write
// pointers, the middle layer's map table and filesystem metadata survive;
// the engine's DRAM state does not), and replays an oracle over every key
// the snapshot could have preserved.
//
// The oracle: a recovered hit for key k must return the value acknowledged
// for k at the snapshot cut, or one acknowledged after it (a post-cut
// rewrite can land at the very index slot the snapshot recorded, which the
// item checksum then legitimately verifies). Anything else is WrongData, a
// hard failure; a miss of an acknowledged key is merely Lost.
//
// The drill has two subjects: single engine values, and chunked objects
// (bigobj). An object's manifest can survive restore while chunks were
// lost to the crash; serving it short or spliced would be wrong data at
// object scale, so an object is served whole or counted lost as one.

// CrashParams configures one crash-consistency run.
type CrashParams struct {
	Scheme Scheme
	// Seed drives the workload, the fault schedule, and the crash point.
	Seed uint64
	// Keys is the working-set size (default 48; at most 24 objects).
	Keys int
	// WarmOps is how many Sets run before the snapshot cut (default 250).
	// Objects are chunk streams: they put a fifth as many, at least 20.
	WarmOps int
	// MaxPostOps bounds the Sets issued after the cut while waiting for the
	// crash trigger (default 600; objects put a fifth as many).
	MaxPostOps int
	// Faults sets the transient-fault rates active throughout the run; the
	// crash trigger is armed on top. Seed is overridden with Seed.
	Faults fault.Config
	// CorruptSnapshot enables the mutation check: the snapshot is corrupted
	// (cache.CorruptSnapshotForTest) and the restored engine verifies no
	// checksums, so a sound oracle MUST report WrongData > 0. Engine values
	// only: a run with ChunkSize > 0 refuses it.
	CorruptSnapshot bool
	// ChunkSize selects the subject: 0 drills engine values, > 0 drills
	// bigobj objects of this chunk payload size.
	ChunkSize int
	// EagerRepair sweeps the restored snapshot's object keys with
	// Store.Repair before the oracle; false leaves detection to reads.
	EagerRepair bool
}

func (p *CrashParams) fillDefaults() {
	if p.Keys == 0 {
		p.Keys = 48
	}
	if p.WarmOps == 0 {
		p.WarmOps = 250
	}
	if p.MaxPostOps == 0 {
		p.MaxPostOps = 600
	}
	if p.ChunkSize > 0 {
		// Objects are 1-2 orders larger than values: a smaller catalog
		// keeps the tiny rig churning instead of thrashing.
		p.Keys = min(p.Keys, 24)
		p.WarmOps = max(p.WarmOps/5, 20)
		p.MaxPostOps /= 5
	}
}

// CrashReport is the oracle's verdict for one run.
type CrashReport struct {
	Scheme Scheme
	Seed   uint64
	// Crashed reports whether the crash fired within the post-cut budget.
	Crashed bool
	// CrashWrites is the device-write count the crash fired at.
	CrashWrites uint64
	// Hits/Lost partition the keys acknowledged at the snapshot cut after
	// recovery: served with a verified value, or forgotten.
	Hits, Lost int
	// WrongData counts hits whose value matches nothing ever acknowledged
	// for that key, short object reads included. It must be zero.
	WrongData int
	// PartialFailures counts lost objects whose manifest outlived a chunk:
	// objects acknowledged at the cut, and objects of the post-recovery
	// smoke that an injected fault cost a chunk.
	PartialFailures int
	// Repairs counts manifests the restored object store dropped.
	Repairs uint64
	// RestoreDrops counts snapshot entries the engine's repair refused.
	RestoreDrops uint64
	// GCDrops counts the regions Region-Cache's co-design GC dropped between
	// the snapshot cut and the crash: regions the snapshot still indexes
	// whose bytes the device no longer maps.
	GCDrops uint64
	// Quarantined/Retries sum the degradation counters of the pre-crash
	// and the recovered engine.
	Quarantined, Retries uint64
	// SubChunkAcked and OneChunkAcked count the objects acknowledged at the
	// cut that live wholly in their manifest: shorter than one chunk, or
	// exactly one.
	SubChunkAcked, OneChunkAcked int
	// MidPutCrash reports that the crash fired between a multi-chunk put's
	// chunk writes and its manifest write.
	MidPutCrash bool
	// ContractErr is any ZNS zone-contract violation the fault wrapper
	// observed (nil for Block-Cache or a clean run).
	ContractErr error
}

// Err folds the report into a pass/fail error: wrong data is the only
// correctness failure; a zone-contract violation is a device-layer bug.
func (r *CrashReport) Err() error {
	if r.WrongData > 0 {
		return fmt.Errorf("harness: %v seed %d: %d hits returned wrong data",
			r.Scheme, r.Seed, r.WrongData)
	}
	if r.ContractErr != nil {
		return fmt.Errorf("harness: %v seed %d: %w", r.Scheme, r.Seed, r.ContractErr)
	}
	return nil
}

// RunCrash executes one seeded crash-consistency run and returns the
// oracle's report. Identical params replay identical runs.
func RunCrash(p CrashParams) (*CrashReport, error) {
	rep, _, err := runCrash(p)
	return rep, err
}

// runCrash is RunCrash, also returning the rig whose Engine is the restored
// one.
func runCrash(p CrashParams) (*CrashReport, *Rig, error) {
	p.fillDefaults()
	if p.CorruptSnapshot && p.ChunkSize > 0 {
		return nil, nil, fmt.Errorf("harness: CorruptSnapshot drills engine values only, not chunked objects")
	}
	p.Faults.Seed = p.Seed
	// A tiny profile, 10 × 256 KiB zones on 4 dies, 6 of them cache: every
	// structure (regions per zone, zone resets, GC) cycles within seconds.
	hw := HWProfile{Zones: 10, BlocksPerZone: 4, PagesPerBlock: 16, Channels: 4, DiesPerChan: 1}
	rig, err := Build(RigConfig{Scheme: p.Scheme, HW: hw, CacheBytes: 6 * hw.ZoneBytes(),
		RegionBytes: 64 << 10, TrackValues: true, Faults: &p.Faults})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: crash rig: %w", err)
	}
	// Each subject keeps its own seed salt, key names and smoke length.
	var s crashSubject = engineValues{rig}
	salt, name, smokes := uint64(0x9e3779b97f4a7c15), "key", 32
	if p.ChunkSize > 0 {
		o := &chunkedObjects{rig: rig, chunk: p.ChunkSize, eager: p.EagerRepair,
			probe: &crashProbe{Cache: rig.Engine, faults: rig.Faults}}
		if err := o.open(o.probe); err != nil {
			return nil, nil, fmt.Errorf("harness: bigobj store: %w", err)
		}
		s, salt, name, smokes = o, 0xb10b0b1ec7a5a5a5, "obj", 8
	}
	rng := sim.NewRand(p.Seed ^ salt)
	rep := &CrashReport{Scheme: p.Scheme, Seed: p.Seed}

	write := func() (string, []byte, bool) {
		k := fmt.Sprintf("%s-%03d", name, rng.Intn(p.Keys))
		v := s.value(rng)
		return k, v, s.put(k, v) == nil
	}

	// Phase 1: warm the cache, transient faults armed, no crash yet. atCut
	// ends as the oracle's expectation at the snapshot cut, and turnover as
	// the device writes issued by the first eviction: one cache turnover.
	atCut := make(map[string][]byte, p.Keys)
	var turnover uint64
	for i := 0; i < p.WarmOps; i++ {
		if k, v, ok := write(); ok {
			atCut[k] = v
		}
		if turnover == 0 && rig.Engine.Stats().Evictions > 0 {
			turnover = rig.Faults.Writes()
		}
	}

	// The snapshot cut.
	snap, err := rig.Engine.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: snapshot: %w", err)
	}
	cutDrops := rig.Engine.Stats().CoDesignDrops
	afterCut := make(map[string][][]byte, p.Keys)

	// Phase 2: arm the crash a seeded distance ahead and write into it.
	// The distance scales with the warm phase's device-write rate so the
	// op budget reaches the crash point on every scheme: a zone-sized
	// region is one device write per quarter megabyte, while f2fs splits
	// each flush into dozens of per-block writes. It is at most one cache
	// turnover's writes, so a longer warm-up does not push the crash past
	// the op budget, nor past the point where the cache has forgotten the
	// cut.
	w0 := rig.Faults.Writes()
	span := w0 / 2
	if turnover > 0 {
		span = min(span, turnover)
	}
	rig.Faults.ArmCrash(w0 + 1 + uint64(rng.Intn(max(int(span), 2))))
	for i := 0; i < p.MaxPostOps && !rig.Faults.Crashed(); i++ {
		if k, v, ok := write(); ok {
			afterCut[k] = append(afterCut[k], v)
		}
	}
	rep.Crashed = rig.Faults.Crashed()
	rep.CrashWrites = rig.Faults.Writes()
	preStats := rig.Engine.Stats()
	rep.GCDrops = preStats.CoDesignDrops - cutDrops

	// The process is dead: drop the engine, revive the device, and rebuild
	// from the last snapshot over whatever the device really holds now.
	rig.Faults.Revive()
	if p.CorruptSnapshot {
		mutated, ok := cache.CorruptSnapshotForTest(snap)
		if !ok {
			return nil, nil, fmt.Errorf("harness: snapshot held no corruptible entry")
		}
		snap = mutated
	}
	rig.engineCfg.SkipChecksum = p.CorruptSnapshot
	if err := rig.Restore(snap); err != nil {
		return nil, nil, fmt.Errorf("harness: restore: %w", err)
	}
	if err := s.reopen(snap); err != nil {
		return nil, nil, fmt.Errorf("harness: reopen: %w", err)
	}

	// Oracle replay over every key acknowledged at the cut, in a fixed
	// order so the run stays seed-deterministic.
	keys := make([]string, 0, len(atCut))
	for k := range atCut {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok, partial, err := s.read(k)
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("harness: recovered read %q: %w", k, err)
		case !ok:
			rep.Lost++
			if partial {
				rep.PartialFailures++
			}
		case matchesOracle(v, atCut[k], afterCut[k]):
			rep.Hits++
		default:
			rep.WrongData++
		}
	}

	// The recovered subject must keep serving what it is given. An object
	// may come back through the clean partial path when a fault injected
	// during its own put or read cost it a chunk: that is a partial failure.
	for i := 0; i < smokes; i++ {
		injected := rig.Faults.Injected.Load()
		k, v, ok := write()
		if !ok {
			return nil, nil, fmt.Errorf("harness: post-recovery put %q failed", k)
		}
		got, ok, partial, err := s.read(k)
		switch {
		case err == nil && ok && bytes.Equal(got, v):
		case err == nil && partial && rig.Faults.Injected.Load() > injected:
			rep.PartialFailures++
		default:
			return nil, nil, fmt.Errorf("harness: post-recovery read %q: hit %v, err %v", k, ok, err)
		}
	}

	post := rig.Engine.Stats()
	rep.RestoreDrops = post.RestoreDrops
	rep.Quarantined = preStats.Quarantined + post.Quarantined
	rep.Retries = preStats.StoreRetries + post.StoreRetries
	if rig.FaultZoned != nil {
		rep.ContractErr = rig.FaultZoned.CheckContract()
	}
	s.report(rep, atCut)
	return rep, rig, nil
}

// matchesOracle reports whether a recovered hit value equals the at-cut
// value or any post-cut acknowledged value for the key.
func matchesOracle(got, atCut []byte, later [][]byte) bool {
	if bytes.Equal(got, atCut) {
		return true
	}
	for _, v := range later {
		if bytes.Equal(got, v) {
			return true
		}
	}
	return false
}

// crashSubject is what the drill writes, recovers and reads back; the rest
// of the drill is shared.
type crashSubject interface {
	// value draws the next value to write.
	value(rng *sim.Rand) []byte
	// put writes k=v before the crash.
	put(k string, v []byte) error
	// reopen rebuilds the subject over the rig's restored engine.
	reopen(snap []byte) error
	// read returns k's value; ok false is a miss, partial one through the
	// clean partial-object path.
	read(k string) (v []byte, ok, partial bool, err error)
	// report fills the subject's own fields of rep; atCut holds the values
	// acknowledged at the snapshot cut.
	report(rep *CrashReport, atCut map[string][]byte)
}

// engineValues drills single engine values: Set before the crash, Get
// after.
type engineValues struct{ rig *Rig }

func (engineValues) value(rng *sim.Rand) []byte {
	b := make([]byte, 64+rng.Intn(3<<10))
	rng.Bytes(b)
	return b
}

func (e engineValues) put(k string, v []byte) error { return e.rig.Engine.Set(k, v, 0) }

func (engineValues) reopen([]byte) error { return nil }

func (e engineValues) read(k string) ([]byte, bool, bool, error) {
	v, ok, err := e.rig.Engine.Get(k)
	return v, ok, false, err
}

func (engineValues) report(*CrashReport, map[string][]byte) {}

// chunkedObjects drills bigobj objects: Put through crashProbe before the
// crash, a whole-object range read after.
type chunkedObjects struct {
	rig   *Rig
	chunk int
	eager bool
	probe *crashProbe
	store *bigobj.Store
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

// open builds the object store over backend.
func (o *chunkedObjects) open(backend bigobj.Backend) (err error) {
	o.store, err = bigobj.New(bigobj.Config{Backend: backend, ChunkSize: o.chunk, Clock: o.rig.Clock})
	return err
}

// value: a quarter of the objects fit one chunk (half of those exactly),
// so their manifest carries them whole; the rest run 1-5 chunks with
// ragged tails, and most of those span regions.
func (o *chunkedObjects) value(rng *sim.Rand) []byte {
	n := o.chunk + rng.Intn(4*o.chunk) + rng.Intn(1000)
	switch rng.Intn(8) {
	case 0:
		n = 1 + rng.Intn(o.chunk-1)
	case 1:
		n = o.chunk
	}
	b := make([]byte, n)
	rng.Bytes(b)
	return b
}

func (o *chunkedObjects) put(k string, v []byte) error {
	return o.store.Put(k, bytes.NewReader(v), 0)
}

func (o *chunkedObjects) reopen(snap []byte) error {
	if err := o.open(o.rig.Engine); err != nil || !o.eager {
		return err
	}
	keys, err := cache.SnapshotKeys(snap)
	if err != nil {
		return err
	}
	// Chunk keys fail the manifest decode and are skipped; only object
	// keys are candidates.
	o.store.Repair(keys)
	return nil
}

// read counts a missing manifest as a whole-object loss, and a read error
// as the clean partial-object failure: the manifest outlived its chunks
// and the read refused to serve a short object.
func (o *chunkedObjects) read(k string) ([]byte, bool, bool, error) {
	rr, err := o.store.NewRangeReader(k, 0, -1)
	if err != nil {
		return nil, false, false, nil
	}
	data, err := io.ReadAll(rr)
	rr.Close()
	return data, err == nil, err != nil, nil
}

func (o *chunkedObjects) report(rep *CrashReport, atCut map[string][]byte) {
	for _, v := range atCut {
		switch {
		case len(v) < o.chunk:
			rep.SubChunkAcked++
		case len(v) == o.chunk:
			rep.OneChunkAcked++
		}
	}
	rep.MidPutCrash = o.probe.midPut
	rep.Repairs = o.store.Stats().ManifestRepairs
}
