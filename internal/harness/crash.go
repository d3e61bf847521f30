package harness

import (
	"bytes"
	"fmt"
	"sort"

	"znscache/internal/cache"
	"znscache/internal/fault"
	"znscache/internal/sim"
)

// Crash-consistency harness. A persistent cache's recovery contract is
// asymmetric: after a crash it may forget acknowledged keys (a cache miss
// is always correct), but a hit must return exactly a value the client
// wrote — never torn, stale-beyond-the-index, or cross-keyed bytes. The
// harness runs a seeded workload against a fault-injected rig, kills the
// simulated process at a seeded device-write count, rebuilds the engine
// from the last snapshot over the surviving device state, and replays an
// oracle over every key the snapshot could have preserved.
//
// The oracle: a post-recovery hit for key k must return either the value
// acknowledged for k at the snapshot cut, or a value acknowledged for k
// after the cut (possible when a post-snapshot rewrite of the same key
// landed at the very index slot the snapshot recorded, which the per-item
// checksum then legitimately verifies). Anything else is WrongData and is
// a hard failure; a miss of a once-acked key is merely Lost, the accounted
// cost of crashing.
//
// The simulated crash kills the cache process: the engine's DRAM state is
// discarded and rebuilt from the snapshot. Device and translation state
// (zone write pointers, the middle layer's map table, filesystem metadata)
// survive, as their on-device persistence is out of scope for the cache's
// own recovery story.

// CrashParams configures one crash-consistency run.
type CrashParams struct {
	Scheme Scheme
	// Seed drives the workload, the fault schedule, and the crash point.
	Seed uint64
	// Keys is the working-set size (default 48).
	Keys int
	// WarmOps is how many Sets run before the snapshot cut (default 250).
	WarmOps int
	// MaxPostOps bounds the Sets issued after the cut while waiting for the
	// crash trigger (default 400).
	MaxPostOps int
	// Faults sets the transient-fault rates active throughout the run; the
	// crash trigger is armed on top. Seed is overridden with Seed.
	Faults fault.Config
	// CorruptSnapshot enables the mutation check: the snapshot is corrupted
	// (cache.CorruptSnapshotForTest) and the restored engine verifies no
	// checksums, so a sound harness MUST report WrongData > 0. It proves
	// the oracle actually detects wrong data.
	CorruptSnapshot bool
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
}

// CrashReport is the oracle's verdict for one run.
type CrashReport struct {
	Scheme Scheme
	Seed   uint64
	// Crashed reports whether the armed crash point fired before the
	// post-snapshot op budget ran out.
	Crashed bool
	// CrashWrites is the device-write count the crash fired at.
	CrashWrites uint64
	// Hits/Lost partition the keys acknowledged at the snapshot cut after
	// recovery: served with a verified value, or forgotten.
	Hits, Lost int
	// WrongData counts hits whose value matches nothing ever acknowledged
	// for that key. It must be zero for a correct cache.
	WrongData int
	// RestoreDrops is the engine's count of snapshot entries its repair
	// pass refused to trust.
	RestoreDrops uint64
	// GCDrops counts the regions Region-Cache's co-design GC dropped between
	// the snapshot cut and the crash: regions the snapshot still indexes
	// whose bytes the device no longer maps.
	GCDrops uint64
	// Quarantined/Retries expose the degradation counters accumulated
	// across the whole run (pre-crash engine + recovered engine).
	Quarantined, Retries uint64
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

// crashHW is the tiny profile crash runs use: 10 × 256 KiB zones on a
// 4-die array, so hundreds of seeded runs finish in seconds while every
// structure (multiple regions per zone, zone resets, GC) still cycles.
func crashHW() HWProfile {
	return HWProfile{Zones: 10, BlocksPerZone: 4, PagesPerBlock: 16, Channels: 4, DiesPerChan: 1}
}

// crashRigConfig sizes a scheme onto the tiny profile.
func crashRigConfig(p CrashParams) RigConfig {
	hw := crashHW()
	return RigConfig{
		Scheme:      p.Scheme,
		HW:          hw,
		CacheBytes:  6 * hw.ZoneBytes(), // 6 zones of cache, 4 of slack
		RegionBytes: 64 << 10,
		TrackValues: true,
		Faults:      &p.Faults,
	}
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
	p.Faults.Seed = p.Seed
	rig, err := Build(crashRigConfig(p))
	if err != nil {
		return nil, nil, fmt.Errorf("harness: crash rig: %w", err)
	}
	rng := sim.NewRand(p.Seed ^ 0x9e3779b97f4a7c15)
	rep := &CrashReport{Scheme: p.Scheme, Seed: p.Seed}

	keyOf := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	value := func() []byte {
		b := make([]byte, 64+rng.Intn(3<<10))
		rng.Bytes(b)
		return b
	}
	acked := make(map[string][]byte, p.Keys)
	writeOne := func() {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		if err := rig.Engine.Set(k, v, 0); err == nil {
			acked[k] = v
		}
	}

	// Phase 1: warm the cache, transient faults armed, no crash yet.
	for i := 0; i < p.WarmOps; i++ {
		writeOne()
	}

	// The snapshot cut. atSnap freezes the oracle's expectation for every
	// key the recovered index may still serve.
	snap, err := rig.Engine.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: snapshot: %w", err)
	}
	cutDrops := rig.Engine.Stats().CoDesignDrops
	atSnap := make(map[string][]byte, len(acked))
	for k, v := range acked {
		atSnap[k] = v
	}
	afterSnap := make(map[string][][]byte, p.Keys)

	// Phase 2: arm the crash a seeded distance ahead and write into it.
	// The distance scales with the warm phase's device-write rate so the
	// op budget reaches the crash point on every scheme: a zone-sized
	// region is one device write per quarter megabyte, while f2fs splits
	// each flush into dozens of per-block writes.
	w0 := rig.Faults.Writes()
	span := int(w0 / 2)
	if span < 2 {
		span = 2
	}
	rig.Faults.ArmCrash(w0 + 1 + uint64(rng.Intn(span)))
	for i := 0; i < p.MaxPostOps && !rig.Faults.Crashed(); i++ {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		if err := rig.Engine.Set(k, v, 0); err == nil {
			afterSnap[k] = append(afterSnap[k], v)
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

	// Oracle replay over every key acknowledged at the cut, in a fixed
	// order so the run stays seed-deterministic.
	keys := make([]string, 0, len(atSnap))
	for k := range atSnap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok, err := rig.Engine.Get(k)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: recovered Get(%q): %w", k, err)
		}
		if !ok {
			rep.Lost++
			continue
		}
		if matchesOracle(v, atSnap[k], afterSnap[k]) {
			rep.Hits++
		} else {
			rep.WrongData++
		}
	}

	// The recovered engine must keep serving: a short smoke workload.
	for i := 0; i < 32; i++ {
		k := keyOf(rng.Intn(p.Keys))
		if err := rig.Engine.Set(k, value(), 0); err != nil {
			return nil, nil, fmt.Errorf("harness: post-recovery Set: %w", err)
		}
		if _, _, err := rig.Engine.Get(k); err != nil {
			return nil, nil, fmt.Errorf("harness: post-recovery Get: %w", err)
		}
	}

	post := rig.Engine.Stats()
	rep.RestoreDrops = post.RestoreDrops
	rep.Quarantined = preStats.Quarantined + post.Quarantined
	rep.Retries = preStats.StoreRetries + post.StoreRetries
	if rig.FaultZoned != nil {
		rep.ContractErr = rig.FaultZoned.CheckContract()
	}
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
