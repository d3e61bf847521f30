package cache_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/middle"
	"znscache/internal/obs"
	"znscache/internal/zns"
)

// The image-lifetime oracle: lock-free readers are served values in place —
// out of region buffers, which stay the region's image once sealed when the
// device kept the buffer as its payload segment — or by a locked read of the
// store, while a writer rolls regions, completes flushes, evicts (which drops
// the evicted region's payload on the device), and makes the middle layer
// migrate regions and reset zones under them. Every served value carries a
// tag derived from its key and length, so bytes that changed under a reader,
// or came from another region's generation, fail the check.

const (
	lifetimeRegion  = 64 << 10
	lifetimeKeys    = 3000
	lifetimeBuffers = 4
)

// lifetimeTag fills n bytes that only key can own at length n.
func lifetimeTag(key string, n int) []byte {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= uint64(n) * 0x9E3779B97F4A7C15
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(h>>(8*(i%8))) ^ byte(i/8)
	}
	return v
}

func lifetimeKey(r uint64) string { return fmt.Sprintf("img-%05d", r%lifetimeKeys) }

// splitmix steps a seeded op stream.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// lifetimeLayout is how the stack's 64 KiB regions lie on the device's
// payload segments, and how the storm drives the engine.
type lifetimeLayout struct {
	name          string
	blocksPerZone int // 64 KiB blocks per zone
	zones         int // a multiple of four
	numRegions    int
	// kept: a zone's segments are 64 KiB (device.NewSegments), one per
	// region, so the device keeps each flushed buffer as its region's
	// segment (RegionKeeper) and every eviction releases a segment.
	kept bool
	// drain: the storm drains the flush pipeline now and then (Drain,
	// SealOpen); without it only a full pipeline lands a flush.
	drain bool
}

var lifetimeLayouts = []lifetimeLayout{
	// Four regions share each 256 KiB zone's one segment, so no buffer is
	// kept, a sealed region's image has no bytes, and an eviction drops no
	// payload: the segment goes at the zone's reset.
	{name: "view=false", blocksPerZone: 4, zones: 16, numRegions: 48, drain: true},
	// A 192 KiB zone, filled to all but four of the regions the layer
	// allows, so GC migrates live regions.
	{name: "segment-per-region", blocksPerZone: 3, zones: 16, numRegions: 39, kept: true, drain: true},
	// A segment per region on eight zones with no drain, so up to three of
	// the four buffers are in flight, and GC migrates regions out of freshly
	// filled zones and resets them before those regions' flushes land: a
	// kept segment is released while the engine still serves its buffer.
	{name: "kept-in-flight", blocksPerZone: 3, zones: 8, numRegions: 15, kept: true},
}

// lifetimeStack is a one-shard cache over a middle layer on a device of
// lay's zones, holding lay's regions.
func lifetimeStack(t *testing.T, lay lifetimeLayout) (*cache.Sharded, cache.Config, *middle.Layer) {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: lay.zones / 4 * lay.blocksPerZone,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: lay.blocksPerZone,
		StoreData:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := middle.New(dev, middle.Config{
		RegionSize: lifetimeRegion, NumRegions: lay.numRegions, OpenZones: 2, MinEmptyZones: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{
		Store: layer, Policy: cache.LRU, TrackValues: true, ReadIndex: true,
		BufferMemory: lifetimeBuffers * lifetimeRegion,
	}
	return lifetimeSharded(t, cfg, nil), cfg, layer
}

// lifetimeSharded wraps c, or a new engine over cfg, in a one-shard frontend.
func lifetimeSharded(t *testing.T, cfg cache.Config, c *cache.Cache) *cache.Sharded {
	t.Helper()
	if c == nil {
		var err error
		if c, err = cache.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	s, err := cache.NewSharded([]*cache.Cache{c})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lifetimeStorm runs one writer against three readers until the writer has
// made sets ops, draining the flush pipeline now and then when drain is set.
// Readers check every value they are served, and check the values of their
// previous batch again after the next one: a value must not change for as
// long as its holder keeps it.
func lifetimeStorm(t *testing.T, s *cache.Sharded, seed uint64, sets int, drain bool) {
	t.Helper()
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := splitmix{seed}
		for i := 0; i < sets; {
			r := rng.next()
			k := lifetimeKey(r >> 8)
			switch op := r % 16; {
			case op == 0:
				s.Delete(k)
			case op == 1 && drain:
				s.WithShard(0, func(c *cache.Cache) { c.Drain() })
			case op == 2 && drain:
				s.WithShard(0, func(c *cache.Cache) {
					if err := c.SealOpen(); err != nil {
						t.Errorf("SealOpen: %v", err)
					}
				})
			default:
				if err := s.Set(k, lifetimeTag(k, 64+int(r>>32%1985)), 0); err != nil {
					t.Errorf("Set(%s): %v", k, err)
					return
				}
				i++
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(rng splitmix) {
			defer wg.Done()
			const width = 16
			keys, vals := make([]string, width), make([][]byte, width)
			hits, errs := make([]bool, width), make([]error, width)
			held := make(map[string][]byte, width)
			check := func(k string, v []byte) bool {
				if !bytes.Equal(v, lifetimeTag(k, len(v))) {
					t.Errorf("%s served %d bytes that are not its tag", k, len(v))
					return false
				}
				return true
			}
			for !done.Load() {
				for k, v := range held {
					if !check(k, v) {
						return
					}
				}
				clear(held)
				if r := rng.next(); r%2 == 0 {
					k := lifetimeKey(r >> 8)
					v, ok, err := s.Get(k)
					if err != nil {
						t.Errorf("Get(%s): %v", k, err)
						return
					}
					if ok && !check(k, v) {
						return
					}
					held[k] = v
					continue
				}
				for j := range keys {
					keys[j] = lifetimeKey(rng.next())
				}
				s.GetMulti(keys, vals, hits, errs)
				for j, k := range keys {
					if errs[j] != nil {
						t.Errorf("GetMulti(%s): %v", k, errs[j])
						return
					}
					if hits[j] {
						if !check(k, vals[j]) {
							return
						}
						held[k] = vals[j]
					}
				}
			}
		}(splitmix{seed*31 + uint64(g)})
	}
	wg.Wait()
}

// lifetimeQuiescent checks every key once no other goroutine runs: the
// lock-free answer equals the locked Get's, memory held for images is the
// open and in-flight region buffers (the cache_region_buffer_bytes gauge),
// within BufferMemory, lock-free hits came out of buffers the store kept
// exactly when it keeps them, and every entry points at a live region.
func lifetimeQuiescent(t *testing.T, s *cache.Sharded, kept bool) {
	t.Helper()
	s.WithShard(0, func(c *cache.Cache) {
		for i := uint64(0); i < lifetimeKeys; i++ {
			k := lifetimeKey(i)
			fv, ffound, done := c.TryFastGet(k)
			lv, lfound, err := c.Get(k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if lfound && !bytes.Equal(lv, lifetimeTag(k, len(lv))) {
				t.Fatalf("locked Get(%s) is not its tag", k)
			}
			if done && (ffound != lfound || !bytes.Equal(fv, lv)) {
				t.Fatalf("%s: lock-free (%d bytes, %v), locked (%d bytes, %v)", k, len(fv), ffound, len(lv), lfound)
			}
		}
		reg := obs.NewRegistry()
		c.MetricsInto(reg, obs.Labels{})
		var dram, bufs, dramHits, storeHits float64
		for _, smp := range reg.Gather() {
			switch {
			case smp.Name == "cache_dram_bytes":
				dram = smp.Value
			case smp.Name == "cache_region_buffer_bytes":
				bufs = smp.Value
			case smp.Name == "cache_fast_get_tier_hits_total" && smp.Labels.Get("tier") == "dram":
				dramHits = smp.Value
			case smp.Name == "cache_fast_get_tier_hits_total" && smp.Labels.Get("tier") == "store":
				storeHits = smp.Value
			}
		}
		if dramHits == 0 {
			t.Error("no lock-free hit was served from memory held for the index")
		}
		if dram != bufs || dram > lifetimeBuffers*lifetimeRegion {
			t.Errorf("images hold %v bytes; the open and in-flight buffers are %v bytes, BufferMemory %d",
				dram, bufs, lifetimeBuffers*lifetimeRegion)
		}
		switch {
		case kept && storeHits == 0:
			t.Error("no lock-free hit was served from a buffer the store kept")
		case !kept && storeHits != 0:
			t.Errorf("%v lock-free hits served from buffers of a store that keeps none", storeHits)
		}
		if err := cache.RegionLiveErr(c); err != nil {
			t.Error(err)
		}
	})
}

// TestImageLifetimeOracle runs the storm over each layout: regions sharing
// payload segments, whose sealed images hold no bytes; a segment per region,
// whose sealed images stay on the buffers the device kept and whose
// evictions release segments under them; and a segment per region with a
// deeper flush pipeline that is never drained, on so few zones that GC
// migrates regions and resets their zones while their flushes are still in
// flight. Each runs once more on an engine restored from a snapshot of the
// first, whose restored keys read the store.
func TestImageLifetimeOracle(t *testing.T) {
	for _, lay := range lifetimeLayouts {
		t.Run(lay.name, func(t *testing.T) {
			s, cfg, layer := lifetimeStack(t, lay)
			lifetimeStorm(t, s, 1, 12000, lay.drain)
			lifetimeQuiescent(t, s, lay.kept)
			if layer.Migrated.Load() == 0 || layer.Resets.Load() == 0 {
				t.Fatalf("GC migrated %d regions and reset %d zones: the storm never moved bytes under an image",
					layer.Migrated.Load(), layer.Resets.Load())
			}
			dev := layer.Device().(*zns.Device)
			if _, dropped := dev.Payload(); lay.kept != (dropped > 0) {
				t.Fatalf("evictions dropped %d payload bytes with a segment per region %v", dropped, lay.kept)
			}
			if kept := dev.Kept.Load(); lay.kept != (kept > 0) {
				t.Fatalf("the device kept %d flushed bytes with a segment per region %v", kept, lay.kept)
			}
			snaps, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := cache.Restore(cfg, snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			resets := layer.Resets.Load()
			rs := lifetimeSharded(t, cfg, r)
			lifetimeStorm(t, rs, 2, 12000, lay.drain)
			lifetimeQuiescent(t, rs, lay.kept)
			if layer.Resets.Load() == resets {
				t.Fatal("no zone was reset after the restore")
			}
		})
	}
}
