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
// out of region buffers, then out of the device's payload segments or, over a
// store that lends no view, by a locked read of the store — while a
// writer rolls regions, completes flushes, evicts (which drops the evicted
// region's payload on the device), and makes the middle layer migrate
// regions and reset zones under them. Every served value carries a tag
// derived from its key and length, so bytes that changed under a reader, or
// came from another region's generation, fail the check.

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

// hideView is a store that lends no view, so a sealed region's image moves
// from its buffer to no bytes.
type hideView struct{ cache.RegionStore }

// lifetimeLayout is how the stack's 64 KiB regions lie on the device's
// payload segments.
type lifetimeLayout struct {
	name          string
	blocksPerZone int // 64 KiB blocks per zone
	numRegions    int
}

var (
	// Four regions share each 256 KiB zone's one segment, so an eviction
	// drops no payload: the segment goes at the zone's reset.
	sharedSegments = lifetimeLayout{"shared", 4, 48}
	// A 192 KiB zone has 64 KiB segments (device.NewSegments), one per
	// region, so every eviction releases its region's segment, and the device
	// keeps each flushed buffer as its region's segment (RegionKeeper).
	wholeSegments = lifetimeLayout{"whole", 3, 39}
)

// lifetimeStack is a one-shard cache over a middle layer on a 16-zone device,
// filled to all but four of the regions the layer allows, so GC migrates
// live regions.
func lifetimeStack(t *testing.T, lay lifetimeLayout, view bool) (*cache.Sharded, cache.Config, *middle.Layer) {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 4 * lay.blocksPerZone,
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
	var st cache.RegionStore = layer
	if !view {
		st = hideView{layer}
	}
	cfg := cache.Config{
		Store: st, Policy: cache.LRU, TrackValues: true, ReadIndex: true,
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
// made sets ops. Readers check every value they are served, and check the
// values of their previous batch again after the next one: a value must not
// change for as long as its holder keeps it.
func lifetimeStorm(t *testing.T, s *cache.Sharded, seed uint64, sets int) {
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
			switch r % 16 {
			case 0:
				s.Delete(k)
			case 1:
				s.WithShard(0, func(c *cache.Cache) { c.Drain() })
			case 2:
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
// lock-free answer equals the locked Get's, memory behind images is the open
// and in-flight region buffers (the cache_region_buffer_bytes gauge), within
// BufferMemory, and every entry points at a live region.
func lifetimeQuiescent(t *testing.T, s *cache.Sharded, view bool) {
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
		case view && storeHits == 0:
			t.Error("no lock-free hit was served from the store's view")
		case !view && storeHits != 0:
			t.Errorf("%v lock-free hits served from a store that lends no view", storeHits)
		}
		if err := cache.RegionLiveErr(c); err != nil {
			t.Error(err)
		}
	})
}

// TestImageLifetimeOracle runs the storm over a store that lends views and
// over one that does not, with regions sharing payload segments, and over a
// store that lends views with a segment per region, which keeps the flushed
// buffers as its segments and whose evictions release segments under held
// views; each time once more on an engine restored from a snapshot of the
// first, whose keys become servable by promotion.
func TestImageLifetimeOracle(t *testing.T) {
	for _, c := range []struct {
		name string
		lay  lifetimeLayout
		view bool
	}{
		{"view=true", sharedSegments, true},
		{"view=false", sharedSegments, false},
		{"segment-per-region", wholeSegments, true},
	} {
		view := c.view
		t.Run(c.name, func(t *testing.T) {
			s, cfg, layer := lifetimeStack(t, c.lay, view)
			lifetimeStorm(t, s, 1, 12000)
			lifetimeQuiescent(t, s, view)
			if layer.Migrated.Load() == 0 || layer.Resets.Load() == 0 {
				t.Fatalf("GC migrated %d regions and reset %d zones: the storm never moved bytes under an image",
					layer.Migrated.Load(), layer.Resets.Load())
			}
			dev := layer.Device().(*zns.Device)
			_, dropped := dev.Payload()
			if (c.lay == wholeSegments) != (dropped > 0) {
				t.Fatalf("evictions dropped %d payload bytes with %s segments", dropped, c.lay.name)
			}
			if kept := dev.Kept.Load(); (c.lay == wholeSegments) != (kept > 0) {
				t.Fatalf("the device kept %d flushed bytes with %s segments", kept, c.lay.name)
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
			lifetimeStorm(t, rs, 2, 12000)
			lifetimeQuiescent(t, rs, view)
			if layer.Resets.Load() == resets {
				t.Fatal("no zone was reset after the restore")
			}
		})
	}
}
