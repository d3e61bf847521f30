package cache

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/zns"
)

// zonedStore is the smallest RegionStore over a real zns.Device — one region
// per zone, as Zone-Cache maps them — so that a fixture's sealed reads pay
// the zns and flash page path instead of memStore's map lookup.
type zonedStore struct {
	dev     *zns.Device
	scratch []byte // target of metadata-only reads
}

// newZonedStore builds 32 zones of 256 KiB, memStore's fixture shape.
func newZonedStore(tb testing.TB, storeData bool) *zonedStore {
	tb.Helper()
	dev, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 32,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4,
		MaxOpenZones:  4,
		StoreData:     storeData,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &zonedStore{dev: dev, scratch: make([]byte, dev.ZoneSize())}
}

func (s *zonedStore) NumRegions() int   { return s.dev.NumZones() }
func (s *zonedStore) RegionSize() int64 { return s.dev.ZoneSize() }

func (s *zonedStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	return s.dev.Write(now, data, int(s.dev.ZoneSize()), int64(id)*s.dev.ZoneSize())
}

func (s *zonedStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if p == nil {
		p = s.scratch
	}
	return s.dev.Read(now, p[:n], int64(id)*s.dev.ZoneSize()+off)
}

func (s *zonedStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	return s.dev.Reset(now, id)
}

// sealedGetCache builds an engine over st (32 regions of 256 KiB) whose
// early regions are all sealed, and returns keys that live in sealed
// regions, so Get exercises the device-read path (the sector-aligned scratch
// buffer) on every call.
func sealedGetCache(b testing.TB, st RegionStore, trackValues bool) (*Cache, []string) {
	b.Helper()
	c, err := New(Config{Store: st, TrackValues: trackValues})
	if err != nil {
		b.Fatal(err)
	}
	var keys []string
	val := make([]byte, 4000)
	// Fill ~24 of 32 regions so nothing is evicted and everything but the
	// open region seals.
	for i := 0; i < 24*60; i++ {
		k := fmt.Sprintf("key-%06d", i)
		var err error
		if trackValues {
			err = c.Set(k, val, 0)
		} else {
			err = c.Set(k, nil, len(val))
		}
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	c.Drain()
	// Keep only keys outside the open region.
	sealed := keys[:0]
	for _, k := range keys {
		if _, e, ok := c.idx.lookup(k); ok && int(e.region) != c.regions.open {
			sealed = append(sealed, k)
		}
	}
	if len(sealed) == 0 {
		b.Fatal("no sealed keys")
	}
	return c, sealed
}

// BenchmarkSealedGetAlloc measures per-Get allocations on the sealed-read
// path with TrackValues on. Before the sync.Pool scratch buffer this path
// allocated the full sector-aligned read span (up to a region) per Get; now
// only the returned value copy allocates. EXPERIMENTS.md records numbers.
func BenchmarkSealedGetAlloc(b *testing.B) {
	c, keys := sealedGetCache(b, newMemStore(32, 256<<10), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkSealedGetMetadataOnly is the same path with TrackValues off
// (the harness's mode): no scratch buffer, no value copy.
func BenchmarkSealedGetMetadataOnly(b *testing.B) {
	c, keys := sealedGetCache(b, newMemStore(32, 256<<10), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// TestSealedGetMetadataOnlyDoesNotAllocate is the harness's mode end to end:
// a metadata-only sealed hit through a real zoned device reads every page of
// the item's span from the flash array and allocates nothing.
func TestSealedGetMetadataOnlyDoesNotAllocate(t *testing.T) {
	st := newZonedStore(t, false)
	c, keys := sealedGetCache(t, st, false)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("metadata-only sealed Get allocates %.0f objects per call, want 0", allocs)
	}
	if st.dev.Array().Reads.Load() == 0 {
		t.Fatal("sealed Gets never reached the flash array")
	}
}

// getBufFixture builds an engine over a data-storing zoned device with one
// multi-sector payload item in each region state a hit can find — sealed,
// flushing (in flight, with spare buffers) and open — and returns the keys by
// state, plus the shared value.
func getBufFixture(t *testing.T) (*Cache, map[string]string, []byte) {
	t.Helper()
	st := newZonedStore(t, true)
	c, err := New(Config{Store: st, TrackValues: true, BufferMemory: 4 * st.RegionSize()})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 3000)
	for i := range val {
		val[i] = byte(i*13 + 1)
	}
	fill := func(flushes uint64) {
		for i := 0; c.Stats().Flushes < flushes; i++ {
			if err := c.Set(fmt.Sprintf("fill-%d-%04d", flushes, i), val, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := map[string]string{"sealed": "item-s", "flushing": "item-f", "open": "item-o"}
	c.Set(keys["sealed"], val, 0)
	fill(1)
	c.Drain()
	c.Set(keys["flushing"], val, 0)
	fill(2)
	c.Set(keys["open"], val, 0)
	for name, want := range map[string]regionState{"sealed": regionSealed, "flushing": regionFlushing, "open": regionOpen} {
		if got := c.regions.meta[entryOf(c, keys[name]).region].state; got != want {
			t.Fatalf("%s item's region is in state %d, want %d", name, got, want)
		}
	}
	return c, keys, val
}

// TestGetBufAliasesCallerBuffer: in every region state, a GetBuf whose
// buffer fits returns the value inside that buffer, byte-equal to Get's
// private copy.
func TestGetBufAliasesCallerBuffer(t *testing.T) {
	c, keys, val := getBufFixture(t)
	for name, key := range keys {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, ReadSpan(len(key), len(val)))
			got, ok, err := c.GetBuf(key, buf)
			if !ok || err != nil {
				t.Fatalf("GetBuf = (%v, %v)", ok, err)
			}
			want, _, _ := c.Get(key)
			if !bytes.Equal(got, want) || !bytes.Equal(got, val) {
				t.Fatal("GetBuf bytes differ from Get's")
			}
			for i := range buf {
				buf[i] = ^buf[i]
			}
			if got[0] != ^val[0] || got[len(got)-1] != ^val[len(val)-1] {
				t.Fatal("GetBuf value does not alias the caller's buffer")
			}
		})
	}
}

// TestGetBufDoesNotAllocate: a GetBuf hit into a buffer of ReadSpan capacity
// allocates nothing in any region state — the sealed read lands in the
// buffer, is verified there, and is returned from there.
func TestGetBufDoesNotAllocate(t *testing.T) {
	c, keys, val := getBufFixture(t)
	for name, key := range keys {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, ReadSpan(len(key), len(val)))
			allocs := testing.AllocsPerRun(100, func() {
				if _, ok, err := c.GetBuf(key, buf); !ok || err != nil {
					t.Fatalf("GetBuf = (%v, %v)", ok, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s GetBuf allocates %.0f objects per call, want 0", name, allocs)
			}
		})
	}
}

// discardStore is a memStore that keeps no payload, for fixtures whose hits
// are all answered from the read index.
type discardStore struct{ *memStore }

func (s discardStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	return s.memStore.WriteRegion(now, id, nil)
}

// fastGetCache builds the serving configuration — FIFO, values tracked, read
// index on — with n published keys whose values run 128–512 B, and returns
// it with the keys. The store keeps no payload, so every hit is served from
// a region buffer.
func fastGetCache(tb testing.TB, n int) (*Cache, []string) {
	tb.Helper()
	c, err := New(Config{
		Store:        discardStore{newMemStore(128, 1<<20)},
		Policy:       FIFO,
		TrackValues:  true,
		ReadIndex:    true,
		BufferMemory: 2 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pool := make([]byte, 512)
	for i := range pool {
		pool[i] = byte(i)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
		if err := c.Set(keys[i], pool[:128+(i*37)%385], 0); err != nil {
			tb.Fatal(err)
		}
	}
	return c, keys
}

// BenchmarkFastGet prices a lock-free hit over 2^18 published keys, visited
// in a scattered order, on one goroutine and on GOMAXPROCS goroutines. The
// multi32 cases send the same lookups 32 at a time through Sharded.GetMulti,
// a pipelined batch's path, and report the cost per key.
func BenchmarkFastGet(b *testing.B) {
	c, keys := fastGetCache(b, 1<<18)
	mask := len(keys) - 1
	get := func(b *testing.B, i int) {
		if _, found, done := c.TryFastGet(keys[(i*40503)&mask]); !found || !done {
			b.Fatalf("TryFastGet = (found %v, done %v)", found, done)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			get(b, i)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var start atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for i := int(start.Add(1)) << 12; pb.Next(); i++ {
				get(b, i)
			}
		})
	})

	s, err := NewSharded([]*Cache{c})
	if err != nil {
		b.Fatal(err)
	}
	// batch returns a lookup of the 32 keys from scattered position i on,
	// with its own result buffers.
	batch := func(b *testing.B) func(i int) {
		const width = 32
		ks, vals := make([]string, width), make([][]byte, width)
		hits, errs := make([]bool, width), make([]error, width)
		return func(i int) {
			for j := range ks {
				ks[j] = keys[((i*width+j)*40503)&mask]
			}
			s.GetMulti(ks, vals, hits, errs)
			for j := range ks {
				if !hits[j] || errs[j] != nil {
					b.Fatalf("GetMulti %s = (hit %v, %v)", ks[j], hits[j], errs[j])
				}
			}
		}
	}
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/key")
	}
	b.Run("multi32/serial", func(b *testing.B) {
		get := batch(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(i)
		}
		perKey(b)
	})
	b.Run("multi32/parallel", func(b *testing.B) {
		b.ReportAllocs()
		var start atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			get := batch(b)
			for i := int(start.Add(1)) << 12; pb.Next(); i++ {
				get(i)
			}
		})
		perKey(b)
	})
}

// TestFastGetDoesNotAllocate: a lock-free hit allocates nothing.
func TestFastGetDoesNotAllocate(t *testing.T) {
	c, keys := fastGetCache(t, 1024)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, found, done := c.TryFastGet(keys[i%len(keys)]); !found || !done {
			t.Fatalf("TryFastGet = (found %v, done %v)", found, done)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("lock-free hit allocates %.0f objects per call, want 0", allocs)
	}

	s, err := NewSharded([]*Cache{c})
	if err != nil {
		t.Fatal(err)
	}
	const width = 32
	vals, hits, errs := make([][]byte, width), make([]bool, width), make([]error, width)
	allocs = testing.AllocsPerRun(200, func() {
		s.GetMulti(keys[:width], vals, hits, errs)
	})
	if allocs != 0 {
		t.Fatalf("a batch of %d lock-free hits allocates %.0f objects per call, want 0", width, allocs)
	}
}

// BenchmarkSealedGetBuf reads a sealed 128 KiB value — a bigobj chunk — from
// a data-storing zoned device: Get's private copy against GetBuf into a
// reused buffer.
func BenchmarkSealedGetBuf(b *testing.B) {
	const valLen = 128 << 10
	c, err := New(Config{Store: newZonedStore(b, true), TrackValues: true})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, valLen)
	for i := range val {
		val[i] = byte(i)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%04d/%d", i, i)
		if err := c.Set(keys[i], val, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.SealOpen(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, ReadSpan(len(keys[0]), valLen))
	for _, bc := range []struct {
		name string
		buf  []byte
	}{{"Get", nil}, {"GetBuf", buf}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(valLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := c.GetBuf(keys[i%len(keys)], bc.buf); !ok || err != nil {
					b.Fatalf("GetBuf = (%v, %v)", ok, err)
				}
			}
		})
	}
}

// BenchmarkItemChecksum prices the on-flash header digest at a small item, a
// page, and a bigobj chunk.
func BenchmarkItemChecksum(b *testing.B) {
	for _, size := range []int{512, 4 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			val := make([]byte, size)
			for i := range val {
				val[i] = byte(i)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += itemChecksum("obj-000042/7", val)
			}
			benchChecksum = sum
		})
	}
}

// benchChecksum keeps BenchmarkItemChecksum's result live.
var benchChecksum uint64

// BenchmarkSetInsertAlloc measures per-Set allocations on the fill path:
// the packed key log amortizes to zero steady-state allocations where the
// old []string regrew per region generation.
func BenchmarkSetInsertAlloc(b *testing.B) {
	st := newMemStore(32, 256<<10)
	c, err := New(Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set(keys[i%len(keys)], nil, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
