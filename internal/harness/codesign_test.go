package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// The co-design differential oracle. Region-Cache's GC reaches the engine
// in one way only: a region it drops (EvGCDrop) is invalidated in the
// engine. So one seeded op stream, run through a co-design rig and through
// a migrate-all rig whose engine is handed the same drops at the same
// flush, must give the same answer to every op and the same engine Stats,
// apart from time. Against a migrate-all rig handed no drops, the two runs
// agree until the first drop; after it a dropped region is one the engine
// need not evict, so the contents part ways, but never the op counts. Every
// hit in every run returns the last value set for its key.
//
// TTLs stay exact although the runs' clocks differ (GC migrations occupy
// the device): the stream runs in epochs that start at the same whole
// second in every run and each take under a second of simulated time, so a
// one-second TTL set in an epoch expires after it and before the next one.

const (
	cdEpochOps = 400
	cdEpoch    = 10 * time.Second
	cdShortTTL = time.Second
	cdLongTTL  = time.Hour
	cdKeys     = 1500
)

// cdHW is a 9-zone device of 128 KiB zones, so a few thousand sets of
// small values cycle the cache and its zones.
func cdHW() HWProfile {
	return HWProfile{Zones: 9, BlocksPerZone: 2, PagesPerBlock: 16, Channels: 2, DiesPerChan: 1}
}

// cdRigConfig is a Region-Cache of 6 zones under LRU, whose hits scatter
// region deaths across zones, so GC finds live regions to migrate or drop.
func cdRigConfig(migrateAll, readIndex bool) RigConfig {
	hw := cdHW()
	return RigConfig{
		Scheme:      RegionCache,
		HW:          hw,
		CacheBytes:  6 * hw.ZoneBytes(),
		RegionBytes: 16 << 10,
		// Four buffers: a flushing region is never cold, so most of the
		// regions must be sealed.
		BufferMemory: 4 * 16 << 10,
		Policy:       cache.LRU,
		PolicySet:    true,
		TrackValues:  true,
		ReadIndex:    readIndex,
		MigrateAll:   migrateAll,
	}
}

type cdKind uint8

const (
	cdGet cdKind = iota
	cdSet
	cdDelete
)

// cdOp is one op of the stream; a set writes version ver of key.
type cdOp struct {
	kind cdKind
	key  string
	ver  uint64
	n    int
	ttl  time.Duration
}

// cdStream is a seeded stream of gets (60 %), sets (35 %, one in five with
// a short TTL and one in ten with a long one) and deletes (5 %) over a
// skewed key space: a fifth of the keys take four fifths of the ops.
func cdStream(seed uint64, n int) []cdOp {
	rng := sim.NewRand(seed)
	ops := make([]cdOp, n)
	var ver uint64
	for i := range ops {
		k := rng.Intn(cdKeys)
		if rng.Intn(5) != 0 {
			k = rng.Intn(cdKeys / 5)
		}
		op := cdOp{key: fmt.Sprintf("cd-%04d", k)}
		switch r := rng.Intn(100); {
		case r < 60:
			op.kind = cdGet
		case r < 95:
			ver++
			op.kind, op.ver, op.n = cdSet, ver, 16+rng.Intn(1200)
			switch rng.Intn(10) {
			case 0, 1:
				op.ttl = cdShortTTL
			case 2:
				op.ttl = cdLongTTL
			}
		default:
			op.kind = cdDelete
		}
		ops[i] = op
	}
	return ops
}

// cdValue is version ver of key, n bytes: the version, then bytes only key
// owns at that version and length. cdCheck recognises it from its bytes.
func cdValue(key string, ver uint64, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, ver)
	h := ver*0x9E3779B97F4A7C15 ^ uint64(n)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	for i := 8; i < n; i++ {
		v[i] = byte(h>>(8*(i%8))) ^ byte(i/8)
	}
	return v
}

// cdCheck reports whether v is a whole value written to key.
func cdCheck(key string, v []byte) bool {
	return len(v) >= 8 && bytes.Equal(v, cdValue(key, binary.LittleEndian.Uint64(v), len(v)))
}

// cdResult is one op's answer: whether it hit (a get) or found its key (a
// delete), and the value a get returned.
type cdResult struct {
	hit bool
	val []byte
}

// cdDrop is a region GC dropped during the engine's flush number flush.
type cdDrop struct {
	flush  int
	region int
}

// cdSink records the drops of a traced run, each with the count of the
// seals that came before it: a drop fires inside the flush whose seal is
// emitted next.
type cdSink struct {
	seals int
	drops []cdDrop
}

func (s *cdSink) TraceEvent(e obs.Event) {
	switch e.Type {
	case obs.EvRegionSeal:
		s.seals++
	case obs.EvGCDrop:
		s.drops = append(s.drops, cdDrop{flush: s.seals, region: int(e.Region)})
	}
}

// dropInjector is a region store that, after flush number i lands, hands
// the engine the drops the co-design run's flush number i made.
type dropInjector struct {
	cache.RegionStore
	rig     *Rig
	drops   []cdDrop
	flushes int
}

func (d *dropInjector) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	lat, err := d.RegionStore.WriteRegion(now, id, data)
	d.landed(err)
	return lat, err
}

// KeepRegion passes the hand-over through to the middle layer, so the engine
// serves sealed hits as it does over the bare layer.
func (d *dropInjector) KeepRegion(now time.Duration, id int, data []byte) (time.Duration, bool, error) {
	lat, kept, err := d.RegionStore.(cache.RegionKeeper).KeepRegion(now, id, data)
	d.landed(err)
	return lat, kept, err
}

// landed hands the engine this flush's drops once it has landed.
func (d *dropInjector) landed(err error) {
	if err != nil {
		return
	}
	for len(d.drops) > 0 && d.drops[0].flush == d.flushes {
		d.rig.Engine.InvalidateRegion(d.drops[0].region)
		d.drops = d.drops[1:]
	}
	d.flushes++
}

// cdRun is one run of a stream.
type cdRun struct {
	results []cdResult
	stats   cache.Stats
	drops   []cdDrop // the drops GC made (co-design runs)
	dropped uint64   // the middle layer's drop count
	firstOp int      // the op during which the first drop fired; -1 without one
}

// runCD drives ops through a Region-Cache rig, single-threaded. A co-design
// run (migrateAll false) traces its drops; a migrate-all run hands its
// engine the drops inject lists, at their flushes.
func runCD(t *testing.T, ops []cdOp, migrateAll, readIndex bool, inject []cdDrop) cdRun {
	t.Helper()
	cfg := cdRigConfig(migrateAll, readIndex)
	sink := &cdSink{}
	if !migrateAll {
		cfg.Trace = obs.NewTracer(64)
		cfg.Trace.SetSink(sink)
	}
	rig, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inject != nil {
		ec := rig.engineCfg
		ec.Store = &dropInjector{RegionStore: rig.Store, rig: rig, drops: inject}
		if rig.Engine, err = cache.New(ec); err != nil {
			t.Fatal(err)
		}
	}
	// One shard, so with the read index on gets take the lock-free path.
	sh, err := cache.NewSharded([]*cache.Cache{rig.Engine})
	if err != nil {
		t.Fatal(err)
	}
	run := cdRun{results: make([]cdResult, len(ops)), firstOp: -1}
	latest := make(map[string][]byte)
	for i, op := range ops {
		if i%cdEpochOps == 0 {
			epoch := time.Duration(i/cdEpochOps) * cdEpoch
			if now := rig.Clock.Now(); now > epoch {
				t.Fatalf("epoch %d starts at %v, the clock is at %v", i/cdEpochOps, epoch, now)
			}
			rig.Clock.AdvanceTo(epoch)
		}
		switch op.kind {
		case cdGet:
			v, hit, err := sh.Get(op.key)
			if err != nil {
				t.Fatalf("op %d: Get(%s): %v", i, op.key, err)
			}
			if hit && !bytes.Equal(v, latest[op.key]) {
				t.Fatalf("op %d: Get(%s) returned %d bytes that are not the last value set", i, op.key, len(v))
			}
			run.results[i] = cdResult{hit: hit, val: v}
		case cdSet:
			v := cdValue(op.key, op.ver, op.n)
			if err := sh.SetTTL(op.key, v, 0, op.ttl); err != nil {
				t.Fatalf("op %d: Set(%s): %v", i, op.key, err)
			}
			latest[op.key] = v
		case cdDelete:
			run.results[i].hit = sh.Delete(op.key)
			delete(latest, op.key)
		}
		if run.firstOp < 0 && len(sink.drops) > 0 {
			run.firstOp = i
		}
		if i%cdEpochOps == cdEpochOps-1 {
			if took := rig.Clock.Now() - time.Duration(i/cdEpochOps)*cdEpoch; took >= cdShortTTL {
				t.Fatalf("epoch %d took %v of simulated time; a short TTL would expire inside it", i/cdEpochOps, took)
			}
		}
	}
	run.stats = sh.Stats()
	run.drops = sink.drops
	run.dropped = rig.Middle.Dropped.Load()
	return run
}

// untimed is s without its time fields.
func untimed(s cache.Stats) cache.Stats {
	s.GetLatency, s.SetLatency, s.SimulatedTime = stats.HistSnapshot{}, stats.HistSnapshot{}, 0
	return s
}

// TestCoDesignDifferential is the oracle over several seeds, with the read
// index off and on.
func TestCoDesignDifferential(t *testing.T) {
	const n = 25 * cdEpochOps
	for _, readIndex := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("readindex=%v/seed=%d", readIndex, seed), func(t *testing.T) {
				ops := cdStream(seed, n)
				cd := runCD(t, ops, false, readIndex, nil)
				if len(cd.drops) == 0 || cd.dropped != uint64(len(cd.drops)) {
					t.Fatalf("co-design GC traced %d drops, the middle layer counts %d: the oracle needs drops",
						len(cd.drops), cd.dropped)
				}
				if cd.stats.CoDesignDrops != cd.dropped {
					t.Fatalf("the engine invalidated %d regions, GC dropped %d", cd.stats.CoDesignDrops, cd.dropped)
				}
				fed := runCD(t, ops, true, readIndex, cd.drops)
				for i := range ops {
					c, f := cd.results[i], fed.results[i]
					if c.hit != f.hit || !bytes.Equal(c.val, f.val) {
						t.Fatalf("op %d (%+v): co-design (hit %v, %d bytes), migrate-all fed its drops (hit %v, %d bytes)",
							i, ops[i], c.hit, len(c.val), f.hit, len(f.val))
					}
				}
				if untimed(cd.stats) != untimed(fed.stats) {
					t.Fatalf("stats differ beyond time:\nco-design %+v\nfed       %+v", untimed(cd.stats), untimed(fed.stats))
				}

				// Without the drops the runs agree up to the first one, and on
				// every count that does not depend on what the cache holds.
				pure := runCD(t, ops, true, readIndex, nil)
				differ := 0
				for i := range ops {
					c, p := cd.results[i], pure.results[i]
					if c.hit == p.hit && bytes.Equal(c.val, p.val) {
						continue
					}
					if i <= cd.firstOp {
						t.Fatalf("op %d, before the first drop (op %d): co-design and migrate-all differ", i, cd.firstOp)
					}
					differ++
				}
				t.Logf("%d drops, the first at op %d; %d of %d ops differ from migrate-all; hits %d vs %d",
					cd.dropped, cd.firstOp, differ, len(ops), cd.stats.Hits, pure.stats.Hits)
				a, b := untimed(cd.stats), untimed(pure.stats)
				a.Hits, a.Misses, a.HitRatio, a.Evictions, a.Expirations, a.CoDesignDrops = 0, 0, 0, 0, 0, 0
				b.Hits, b.Misses, b.HitRatio, b.Evictions, b.Expirations, b.CoDesignDrops = 0, 0, 0, 0, 0, 0
				if a != b {
					t.Fatalf("stats differ beyond hits, evictions, expirations and drops:\nco-design   %+v\nmigrate-all %+v", a, b)
				}
				if e := pure.stats.Evictions - cd.stats.Evictions; pure.stats.Evictions < cd.stats.Evictions || e > cd.dropped {
					t.Fatalf("migrate-all evicted %d regions, co-design %d with %d drops",
						pure.stats.Evictions, cd.stats.Evictions, cd.dropped)
				}
			})
		}
	}
}

// TestCoDesignDropsUnderReaders drops regions under lock-free readers: every
// hit they are served, while GC drops the regions under them, is a whole
// value written to its key.
func TestCoDesignDropsUnderReaders(t *testing.T) {
	rig, err := Build(cdRigConfig(false, true))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cache.NewSharded([]*cache.Cache{rig.Engine})
	if err != nil {
		t.Fatal(err)
	}
	ops := cdStream(7, 25*cdEpochOps)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for _, op := range ops {
			switch op.kind {
			case cdGet:
				if _, _, err := sh.Get(op.key); err != nil {
					t.Errorf("Get(%s): %v", op.key, err)
					return
				}
			case cdSet:
				if err := sh.SetTTL(op.key, cdValue(op.key, op.ver, op.n), 0, op.ttl); err != nil {
					t.Errorf("Set(%s): %v", op.key, err)
					return
				}
			case cdDelete:
				sh.Delete(op.key)
			}
		}
	}()
	var served atomic.Uint64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(rng *sim.Rand) {
			defer wg.Done()
			const width = 8
			keys, vals := make([]string, width), make([][]byte, width)
			hits, errs := make([]bool, width), make([]error, width)
			for !done.Load() {
				for j := range keys {
					keys[j] = fmt.Sprintf("cd-%04d", rng.Intn(cdKeys/5))
				}
				sh.GetMulti(keys, vals, hits, errs)
				for j, k := range keys {
					if errs[j] != nil {
						t.Errorf("GetMulti(%s): %v", k, errs[j])
						return
					}
					if hits[j] {
						served.Add(1)
						if !cdCheck(k, vals[j]) {
							t.Errorf("%s served %d bytes that are no value written to it", k, len(vals[j]))
							return
						}
					}
				}
			}
		}(sim.NewRand(uint64(g) + 100))
	}
	wg.Wait()
	if rig.Middle.Dropped.Load() == 0 || served.Load() == 0 {
		t.Fatalf("GC dropped %d regions, readers were served %d hits: nothing raced a drop",
			rig.Middle.Dropped.Load(), served.Load())
	}
}
