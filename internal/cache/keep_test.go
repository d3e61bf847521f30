package cache_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/middle"
	"znscache/internal/obs"
	"znscache/internal/zns"
)

// keepRegion is a region the size of one payload segment, so every host
// placement is a whole segment the device can keep.
const keepRegion = 256 << 10

// keepStack builds a middle layer over sixteen 1 MiB zones, with faults from
// inj under it when inj is not nil, and the engine config for a 16-region
// cache over it that holds two region buffers.
func keepStack(t *testing.T, readIndex bool, inj *fault.Injector) (cache.Config, *zns.Device) {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 64, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4,
		StoreData:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var zd zns.Zoned = dev
	if inj != nil {
		zd = fault.WrapZoned(dev, inj)
	}
	layer, err := middle.New(zd, middle.Config{RegionSize: keepRegion, NumRegions: 16, OpenZones: 2, MinEmptyZones: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cache.Config{
		Store: layer, Policy: cache.FIFO, TrackValues: true, ReadIndex: readIndex,
		BufferMemory: 2 * keepRegion,
	}, dev
}

// bufferBytes reads the cache_region_buffer_bytes gauge.
func bufferBytes(c *cache.Cache) float64 {
	reg := obs.NewRegistry()
	c.MetricsInto(reg, obs.Labels{})
	for _, smp := range reg.Gather() {
		if smp.Name == "cache_region_buffer_bytes" {
			return smp.Value
		}
	}
	return -1
}

// TestKeptFlushDoesNotAllocate rolls regions of one item each over the
// middle layer and a zns device with payload. With the read index on the
// device keeps each flushed buffer whole: a roll allocates only the successor
// buffer, and the region's image is the engine buffer's memory before and
// after the seal. With it off the device copies, the buffer goes back to the
// spare list and buffers stay within BufferMemory.
func TestKeptFlushDoesNotAllocate(t *testing.T) {
	for _, readIndex := range []bool{true, false} {
		t.Run(fmt.Sprintf("readindex=%v", readIndex), func(t *testing.T) {
			cfg, dev := keepStack(t, readIndex, nil)
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var prev []byte
			roll := func(i int) {
				k := fmt.Sprintf("keep-%03d", i)
				if err := c.Set(k, lifetimeTag(k, 1000), 0); err != nil {
					t.Fatal(err)
				}
				_, buf := cache.OpenBuffer(c)
				before, _, _ := c.TryFastGet(k)
				kept := dev.Kept.Load()
				if err := c.SealOpen(); err != nil {
					t.Fatal(err)
				}
				var want uint64
				if readIndex {
					want = keepRegion
				}
				if got := dev.Kept.Load() - kept; got != want {
					t.Fatalf("roll %d: the device kept %d bytes of the flush with the read index %v, want %d", i, got, readIndex, want)
				}
				if readIndex {
					after, found, done := c.TryFastGet(k)
					if !found || !done || &after[0] != &before[0] {
						t.Fatalf("roll %d: the sealed image moved off the flushed buffer", i)
					}
				} else {
					if _, next := cache.OpenBuffer(c); prev != nil && &next[0] != &prev[0] {
						t.Fatalf("roll %d: the open region did not take the spare buffer", i)
					}
					if got := bufferBytes(c); got > float64(cfg.BufferMemory) {
						t.Fatalf("roll %d: region buffers hold %v bytes, BufferMemory %d", i, got, cfg.BufferMemory)
					}
				}
				prev = buf
			}
			// Two warm-up rolls fill the spare list and the layer's tables.
			roll(0)
			roll(1)
			const rolls = 8
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 2; i < 2+rolls; i++ {
				roll(i)
			}
			runtime.ReadMemStats(&m1)
			perRoll := (m1.TotalAlloc - m0.TotalAlloc) / rolls
			if perRoll < keepRegion || perRoll >= keepRegion+keepRegion/4 {
				t.Errorf("a roll allocates %d bytes, want one %d-byte region and change", perRoll, keepRegion)
			}
		})
	}
}

// TestKeptFlushFaultRetry tears kept flushes through fault.ZonedDevice while
// a reader serves hits. A torn write copies its prefix and keeps nothing,
// and the engine's retry lands the whole region, which the device keeps:
// after every roll, each key of the flushed region reads back its own value,
// locked and lock-free, the latter out of the same memory as before the
// flush.
func TestKeptFlushFaultRetry(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 5, TornWriteRate: 0.3})
	cfg, dev := keepStack(t, true, inj)
	s := lifetimeSharded(t, cfg, nil)
	const rolls, perRegion = 24, 200

	var wg sync.WaitGroup
	var done atomic.Bool
	var written atomic.Int64
	defer func() {
		done.Store(true)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			n := written.Load()
			if n == 0 {
				runtime.Gosched()
				continue
			}
			k := lifetimeKey(uint64(i) % uint64(n))
			if v, ok, err := s.Get(k); err != nil || ok && !bytes.Equal(v, lifetimeTag(k, len(v))) {
				t.Errorf("Get(%s) = %d bytes, %v: not its tag", k, len(v), err)
				return
			}
		}
	}()

	retried := 0
	for r := 0; r < rolls && !t.Failed(); r++ {
		keys, vals := make([]string, perRegion), make([][]byte, perRegion)
		for j := range keys {
			keys[j] = lifetimeKey(uint64(r*perRegion + j))
			vals[j] = lifetimeTag(keys[j], 64+(r*perRegion+j)%1000)
			if err := s.Set(keys[j], vals[j], 0); err != nil {
				t.Fatal(err)
			}
		}
		s.WithShard(0, func(c *cache.Cache) {
			before := make([]*byte, len(keys))
			for j, k := range keys {
				v, _, _ := c.TryFastGet(k)
				before[j] = &v[0]
			}
			retries, kept := c.Stats().StoreRetries, dev.Kept.Load()
			if err := c.SealOpen(); err != nil {
				t.Fatal(err)
			}
			if c.Stats().StoreRetries > retries {
				retried++
			}
			if got := dev.Kept.Load() - kept; got != keepRegion {
				t.Fatalf("roll %d: the device kept %d bytes of the flush, want the %d-byte buffer", r, got, keepRegion)
			}
			for j, k := range keys {
				fv, ffound, fdone := c.TryFastGet(k)
				lv, lfound, err := c.Get(k)
				if err != nil || !ffound || !fdone || !bytes.Equal(fv, vals[j]) || !bytes.Equal(lv, vals[j]) {
					t.Fatalf("roll %d: %s: lock-free (%d bytes, %v), locked (%d bytes, %v, %v)", r, k, len(fv), ffound, len(lv), lfound, err)
				}
				if &fv[0] != before[j] {
					t.Fatalf("roll %d: %s: the sealed image moved off the buffer the engine flushed", r, k)
				}
			}
		})
		written.Store(int64((r + 1) * perRegion))
	}
	if retried == 0 || dev.Kept.Load() == 0 {
		t.Fatalf("%d rolls retried a flush and the device kept %d bytes: the faults never met the keep path", retried, dev.Kept.Load())
	}
	t.Logf("%d of %d rolls retried a torn flush; %d torn writes in all", retried, rolls, inj.TornWrites.Load())
}
