package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"znscache/internal/obs"
)

// memStore is an in-memory RegionStore with configurable latencies, used to
// test the engine in isolation from the device models.
type memStore struct {
	n          int
	regionSize int64
	writeLat   time.Duration
	readLat    time.Duration
	evictLat   time.Duration
	data       map[int][]byte
	writes     int
	reads      int
	evictions  int
}

func newMemStore(n int, regionSize int64) *memStore {
	return &memStore{
		n: n, regionSize: regionSize,
		writeLat: time.Millisecond, readLat: 100 * time.Microsecond,
		data: make(map[int][]byte),
	}
}

func (s *memStore) NumRegions() int   { return s.n }
func (s *memStore) RegionSize() int64 { return s.regionSize }

func (s *memStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	s.writes++
	if data != nil {
		s.data[id] = append([]byte(nil), data...)
	} else {
		delete(s.data, id)
	}
	return s.writeLat, nil
}

func (s *memStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	s.reads++
	if p != nil {
		if d, ok := s.data[id]; ok {
			copy(p, d[off:off+int64(n)])
		}
	}
	return s.readLat, nil
}

// KeepRegion keeps data itself as region id's bytes: WriteRegion replaces
// them and EvictRegion forgets them, neither writes into them.
func (s *memStore) KeepRegion(now time.Duration, id int, data []byte) (time.Duration, bool, error) {
	s.writes++
	s.data[id] = data
	return s.writeLat, true, nil
}

// viewlessStore hides its store's KeepRegion, so it copies every flush and a
// sealed region's image holds no bytes: only RegionStore's methods are
// promoted from the embedded interface.
type viewlessStore struct{ RegionStore }

func (s *memStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	s.evictions++
	delete(s.data, id)
	return s.evictLat, nil
}

func newTestCache(t *testing.T, regions int, regionSize int64, opts ...func(*Config)) (*Cache, *memStore) {
	t.Helper()
	st := newMemStore(regions, regionSize)
	cfg := Config{Store: st, TrackValues: true}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, st
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil store err = %v", err)
	}
	if _, err := New(Config{Store: newMemStore(1, 4096)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("1 region err = %v", err)
	}
	if _, err := New(Config{Store: newMemStore(4, 1000)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unaligned region err = %v", err)
	}
}

func TestSetGetFromOpenRegion(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	want := []byte("value-bytes")
	if err := c.Set("k1", want, 0); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, ok, err := c.Get("k1")
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v, %v)", got, ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
}

func TestGetMiss(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("hit on absent key")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	if err := c.Set("", nil, 10); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key err = %v", err)
	}
}

func TestItemTooLarge(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096)
	if err := c.Set("k", nil, 5000); !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
}

// admitCounter admits everything and counts the calls. It is its own
// factory, so the test can read the count off the instance the engine uses.
type admitCounter struct{ n int }

func (a *admitCounter) Admit(string, int) bool { a.n++; return true }

func (a *admitCounter) Name() string { return "counter" }

func (a *admitCounter) New(AdmissionParams) Admission { return a }

// TestKeyTooLongRejected: the item header and the key log hold a key's
// length as a uint16, so a longer key is refused before admission and leaves
// the index and key logs as they were, while a key of the longest length is
// served. Small sets that follow roll and evict regions around both.
func TestKeyTooLongRejected(t *testing.T) {
	adm := &admitCounter{}
	c, _ := newTestCache(t, 8, 256<<10, func(cfg *Config) { cfg.Admission = adm })
	long := strings.Repeat("k", maxKeyLen+1)
	if err := c.Set(long, []byte("v"), 0); !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("Set of a %d-byte key: err = %v, want ErrItemTooLarge", len(long), err)
	}
	if adm.n != 0 || c.Len() != 0 {
		t.Fatalf("refused key reached admission %d times, index holds %d entries", adm.n, c.Len())
	}
	longest := strings.Repeat("m", maxKeyLen)
	if err := c.Set(longest, []byte("longest"), 0); err != nil {
		t.Fatalf("Set of a %d-byte key: %v", len(longest), err)
	}
	if got, ok, err := c.Get(longest); !ok || err != nil || string(got) != "longest" {
		t.Fatalf("Get of the longest key = (%q, %v, %v)", got, ok, err)
	}
	for i := 0; i < 5000; i++ {
		if err := c.Set(fmt.Sprintf("small-%04d", i), bytes.Repeat([]byte{byte(i)}, 100), 0); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := regionLiveErr(c); err != nil {
				t.Fatalf("after %d small sets: %v", i, err)
			}
		}
	}
	if err := regionLiveErr(c); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(long); ok {
		t.Fatal("refused key served")
	}
}

func TestGetFromSealedRegion(t *testing.T) {
	// Fill enough regions that the first one is sealed, then read from it.
	c, _ := newTestCache(t, 8, 4096)
	want := bytes.Repeat([]byte{0xEE}, 1000)
	if err := c.Set("k0", want, 0); err != nil {
		t.Fatal(err)
	}
	// Each region fits 3 such items (16+2+1000 = 1018 bytes). Fill several.
	for i := 1; i < 12; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	got, ok, err := c.Get("k0")
	if err != nil || !ok {
		t.Fatalf("Get k0 = (%v, %v)", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sealed-region read mismatch")
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	c.Set("k", []byte("old"), 0)
	c.Set("k", []byte("new"), 0)
	got, ok, _ := c.Get("k")
	if !ok || string(got) != "new" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDelete(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	c.Set("k", []byte("v"), 0)
	if !c.Delete("k") {
		t.Fatal("Delete existing returned false")
	}
	if c.Delete("k") {
		t.Fatal("Delete absent returned true")
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestContains(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	c.Set("k", []byte("v"), 0)
	if !c.Contains("k") || c.Contains("nope") {
		t.Fatal("Contains wrong")
	}
}

// fillItems inserts metadata-only items of the given payload size until the
// cache has performed at least wantEvictions evictions.
func fillUntilEvictions(t *testing.T, c *Cache, itemVal int, wantEvictions uint64) int {
	t.Helper()
	i := 0
	for c.Stats().Evictions < wantEvictions {
		if err := c.Set(fmt.Sprintf("key-%08d", i), nil, itemVal); err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
		i++
		if i > 1_000_000 {
			t.Fatal("eviction never happened")
		}
	}
	return i
}

func TestEvictionRemovesAllRegionKeys(t *testing.T) {
	c, st := newTestCache(t, 4, 4096)
	n := fillUntilEvictions(t, c, 1000, 1)
	if st.evictions != 1 {
		t.Fatalf("store evictions = %d", st.evictions)
	}
	// The earliest keys (region 0) must be gone; the newest must remain.
	if c.Contains("key-00000000") {
		t.Fatal("evicted key still present")
	}
	if !c.Contains(fmt.Sprintf("key-%08d", n-1)) {
		t.Fatal("latest key missing")
	}
}

func TestLRUEvictionPrefersCold(t *testing.T) {
	// Keep key-0 hot by re-reading it; under LRU its region should survive
	// one eviction round while a cold region dies.
	c, _ := newTestCache(t, 4, 4096, func(cfg *Config) { cfg.Policy = LRU })
	// Items are 16+5+1000 = 1021 bytes: 4 per 4096-byte region. 16 inserts
	// fill all four regions (keys 0-3 in region 0, 4-7 in region 1, ...).
	for i := 0; i < 16; i++ {
		c.Set(fmt.Sprintf("key-%d", i), nil, 1000)
	}
	// Touch region 0, making it MRU among sealed regions.
	if _, ok, _ := c.Get("key-0"); !ok {
		t.Fatal("key-0 missing before eviction")
	}
	// The 17th insert seals the open region and must evict: the victim is
	// now region 1 (the coldest), not the re-touched region 0.
	c.Set("key-16", nil, 1000)
	if !c.Contains("key-0") {
		t.Fatal("hot region evicted under LRU")
	}
	if c.Contains("key-4") {
		t.Fatal("cold region survived while hot one was kept")
	}
}

func TestFIFOEvictionIgnoresAccess(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096, func(cfg *Config) { cfg.Policy = FIFO })
	for i := 0; i < 16; i++ {
		c.Set(fmt.Sprintf("key-%d", i), nil, 1000)
	}
	c.Get("key-0") // access must not rescue region 0 under FIFO
	c.Set("key-16", nil, 1000)
	if c.Contains("key-0") {
		t.Fatal("FIFO kept the oldest region despite re-access")
	}
	if !c.Contains("key-4") {
		t.Fatal("FIFO evicted a newer region")
	}
}

func TestFillLogRecordsEvictionOnset(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096)
	fillUntilEvictions(t, c, 1000, 3)
	log := c.FillLog()
	if len(log) < 4 {
		t.Fatalf("fill log too short: %d", len(log))
	}
	// The first fills need no eviction; later ones do.
	if log[0].Evicted {
		t.Fatal("first region fill flagged as evicting")
	}
	var sawEvict bool
	for _, r := range log {
		if r.Evicted {
			sawEvict = true
		}
		if r.Duration < 0 {
			t.Fatal("negative fill duration")
		}
	}
	if !sawEvict {
		t.Fatal("no fill flagged as evicting")
	}
	for i := 1; i < len(log); i++ {
		if log[i].Seq != log[i-1].Seq+1 {
			t.Fatal("fill sequence not contiguous")
		}
	}
}

func TestEvictionSpikeScalesWithRegionKeys(t *testing.T) {
	// The index-cleanup stall is proportional to keys per region: a region
	// with 4x the keys must stall ~4x longer (Figure 3's mechanism).
	stall := func(regionSize int64) time.Duration {
		st := newMemStore(4, regionSize)
		st.writeLat, st.readLat, st.evictLat = 0, 0, 0
		c, err := New(Config{Store: st, CPU: CPUModel{
			IndexLookup: 1, IndexInsert: 1, IndexRemove: 1,
			AppendItem: 1, AppendPerKiB: 1, EvictPerKey: time.Microsecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		before := c.Clock().Now()
		i := 0
		for c.Stats().Evictions < 2 {
			c.Set(fmt.Sprintf("key-%08d", i), nil, 1000)
			i++
		}
		_ = before
		// Compare the recorded fill durations before/after eviction onset.
		log := c.FillLog()
		var evictedMax time.Duration
		for _, r := range log {
			if r.Evicted && r.Duration > evictedMax {
				evictedMax = r.Duration
			}
		}
		return evictedMax
	}
	small, large := stall(4096), stall(16384)
	if large < small*2 {
		t.Fatalf("large-region eviction stall %v not ≫ small %v", large, small)
	}
}

func TestFlushPipelineBounded(t *testing.T) {
	// BufferMemory of exactly 2 regions: at most 2 in-flight flushes; the
	// 3rd roll must advance the clock to the oldest completion.
	st := newMemStore(16, 4096)
	st.writeLat = 10 * time.Millisecond
	c, err := New(Config{Store: st, BufferMemory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Stats().Flushes < 3; i++ {
		c.Set(fmt.Sprintf("key-%08d", i), nil, 1000)
	}
	// After 3 flushes with pipeline depth 2, at least one flush completion
	// (10ms) must have been waited on.
	if c.Clock().Now() < 10*time.Millisecond {
		t.Fatalf("clock %v: pipeline never stalled on flush completion", c.Clock().Now())
	}
}

// checkBufferBound asserts that the region-buffer bytes c holds, over its
// regions and the spare list, stay within Config.BufferMemory, and that the
// cache_region_buffer_bytes gauge reports exactly that sum.
func checkBufferBound(t *testing.T, c *Cache) {
	t.Helper()
	var held int64
	for i := range c.regions.meta {
		held += int64(cap(c.regions.meta[i].buf))
	}
	for _, b := range c.regions.spare {
		held += int64(cap(b))
	}
	if held > c.cfg.BufferMemory {
		t.Fatalf("region buffers hold %d bytes, BufferMemory is %d", held, c.cfg.BufferMemory)
	}
	reg := obs.NewRegistry()
	c.MetricsInto(reg, obs.Labels{})
	if got := gatherSum(t, reg, "cache_region_buffer_bytes"); got != float64(held) {
		t.Fatalf("cache_region_buffer_bytes = %v, buffers hold %d", got, held)
	}
}

// TestRegionBuffersWithinBufferMemory runs each pipeline depth and policy
// through several full turn-overs of the region table and checks, after
// every set, that buffers stay within BufferMemory while every indexed key —
// open, flushing or sealed — reads back its own bytes through Get and
// GetBuf. Recycled buffers carry an earlier region's bytes past fill, so a
// read that strayed past what its own region wrote would show here.
func TestRegionBuffersWithinBufferMemory(t *testing.T) {
	const regions, regionSize = 8, 4096
	for _, depth := range []int64{1, 2, 4} {
		for _, policy := range []Policy{FIFO, LRU} {
			t.Run(fmt.Sprintf("buffers=%d/policy=%d", depth, policy), func(t *testing.T) {
				c, _ := newTestCache(t, regions, regionSize, func(cfg *Config) {
					cfg.BufferMemory = depth * regionSize
					cfg.Policy = policy
				})
				vals := map[string][]byte{}
				seen := map[regionState]bool{}
				for i := 0; c.Stats().Evictions < 3*regions; i++ {
					k := fmt.Sprintf("key-%05d", i)
					v := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 350+(i*37)%300)
					vals[k] = v
					if err := c.Set(k, v, 0); err != nil {
						t.Fatalf("Set(%s): %v", k, err)
					}
					checkBufferBound(t, c)
					var keys []string
					c.eachEntry(func(k string, _ entry) { keys = append(keys, k) })
					for _, k := range keys {
						seen[c.regions.meta[entryOf(c, k).region].state] = true
						want := vals[k]
						got, ok, err := c.Get(k)
						if !ok || err != nil || !bytes.Equal(got, want) {
							t.Fatalf("Get(%s) = (%v, %v), bytes equal %v", k, ok, err, bytes.Equal(got, want))
						}
						got, ok, err = c.GetBuf(k, make([]byte, ReadSpan(len(k), len(want))))
						if !ok || err != nil || !bytes.Equal(got, want) {
							t.Fatalf("GetBuf(%s) = (%v, %v), bytes equal %v", k, ok, err, bytes.Equal(got, want))
						}
					}
				}
				want := map[regionState]bool{regionOpen: true, regionSealed: true, regionFlushing: depth > 1}
				for st, w := range want {
					if seen[st] != w {
						t.Errorf("read items in state %d: %v, want %v", st, seen[st], w)
					}
				}
			})
		}
	}
}

func TestDeepPipelineOverlapsFlushes(t *testing.T) {
	// With a deep pipeline, three flushes cost less wall-clock than three
	// serial write latencies.
	run := func(bufMem int64) time.Duration {
		st := newMemStore(16, 4096)
		st.writeLat = 10 * time.Millisecond
		c, err := New(Config{Store: st, BufferMemory: bufMem})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; c.Stats().Flushes < 3; i++ {
			c.Set(fmt.Sprintf("key-%08d", i), nil, 1000)
		}
		return c.Clock().Now()
	}
	shallow := run(4096)   // depth 1: serial flushes
	deep := run(16 * 4096) // depth 16: fully overlapped
	if deep >= shallow {
		t.Fatalf("deep pipeline (%v) not faster than shallow (%v)", deep, shallow)
	}
}

func TestAdmissionRejectCounts(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10, func(cfg *Config) {
		cfg.Admission = ProbAdmitFactory{P: 0} // reject everything
	})
	c.Set("k", nil, 100)
	if c.Contains("k") {
		t.Fatal("rejected item was admitted")
	}
	if c.Stats().AdmitRejects != 1 {
		t.Fatalf("AdmitRejects = %d", c.Stats().AdmitRejects)
	}
}

func TestRejectFirstAdmitsSecondAccess(t *testing.T) {
	a := NewRejectFirstAdmit(1024, 1000)
	if a.Admit("x", 1) {
		t.Fatal("first access admitted")
	}
	if !a.Admit("x", 1) {
		t.Fatal("second access rejected")
	}
}

func TestRejectFirstWindowResets(t *testing.T) {
	a := NewRejectFirstAdmit(1024, 2)
	a.Admit("x", 1)
	a.Admit("y", 1) // window hits 2, filter clears
	if a.Admit("x", 1) {
		t.Fatal("x should have been forgotten after window reset")
	}
}

func TestProbAdmitFraction(t *testing.T) {
	a := NewProbAdmit(0.3, 42)
	admits := 0
	for i := 0; i < 10000; i++ {
		if a.Admit("k", 1) {
			admits++
		}
	}
	if admits < 2700 || admits > 3300 {
		t.Fatalf("admit fraction %d/10000, want ~3000", admits)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	c.Set("a", []byte("1"), 0)
	c.Get("a")
	c.Get("b")
	c.Delete("a")
	st := c.Stats()
	if st.Sets != 1 || st.Gets != 2 || st.Deletes != 1 {
		t.Fatalf("op counts: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 1 || st.HitRatio != 0.5 {
		t.Fatalf("hit stats: %+v", st)
	}
	if st.HostWriteBytes == 0 || st.SimulatedTime == 0 {
		t.Fatalf("accounting zeros: %+v", st)
	}
	if st.GetLatency.Count != 2 || st.SetLatency.Count != 1 {
		t.Fatalf("latency counts: %+v", st)
	}
}

func TestIndexNeverPointsToFreeRegion(t *testing.T) {
	// Invariant check after heavy churn with overwrites and deletes.
	c, _ := newTestCache(t, 6, 4096)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%04d", i%50)
		switch i % 5 {
		case 0, 1, 2:
			c.Set(k, nil, 700)
		case 3:
			c.Get(k)
		case 4:
			c.Delete(k)
		}
	}
	c.eachEntry(func(k string, e entry) {
		if c.regions.meta[e.region].state == regionFree {
			t.Fatalf("key %s points to free region %d", k, e.region)
		}
	})
}

func TestMetadataOnlyGetReturnsNil(t *testing.T) {
	st := newMemStore(4, 4096)
	c, err := New(Config{Store: st}) // TrackValues off
	if err != nil {
		t.Fatal(err)
	}
	c.Set("k", nil, 100)
	v, ok, err := c.Get("k")
	if err != nil || !ok || v != nil {
		t.Fatalf("metadata-only Get = (%v, %v, %v), want (nil, true, nil)", v, ok, err)
	}
}

// TestViewlessSealedReadsStore: over a store that keeps no buffer, a sealed
// region's image holds no bytes. Its keys are not served lock-free; the
// locked Get reads each from the store, charging the read to the clock. A
// deleted key is not served, keys in the open region still are, and the
// memory behind images is the open and in-flight buffers only.
func TestViewlessSealedReadsStore(t *testing.T) {
	st := newMemStore(8, 4096)
	c, err := New(Config{Store: viewlessStore{st}, TrackValues: true, ReadIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"a": bytes.Repeat([]byte{1}, 300),
		"b": bytes.Repeat([]byte{2}, 300),
		"d": {},
	}
	c.Set("a", want["a"], 300)
	c.Set("b", want["b"], 300)
	c.Set("c", bytes.Repeat([]byte{3}, 100), 100)
	want["a"] = bytes.Repeat([]byte{4}, 200)
	c.Set("a", want["a"], 200)
	c.Set("d", want["d"], 0)
	c.Delete("c")
	if err := c.SealOpen(); err != nil {
		t.Fatal(err)
	}
	c.Drain()

	id := entryOf(c, "a").region
	if img := c.idx.imageOf(id); c.regions.meta[id].state != regionSealed || img == nil || img.b != nil {
		t.Fatalf("region state %v: want a sealed region whose image has no bytes", c.regions.meta[id].state)
	}
	for k, v := range want {
		if _, _, done := c.TryFastGet(k); done {
			t.Errorf("TryFastGet(%s) answered lock-free from a sealed region over a store that keeps no buffer", k)
		}
		reads, now := st.reads, c.clock.Now()
		got, found, err := c.Get(k)
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Errorf("Get(%s) = (%d bytes, found %v, %v), want its %d bytes", k, len(got), found, err, len(v))
		}
		if st.reads != reads+1 || c.clock.Now() <= now {
			t.Errorf("Get(%s): %d store reads, clock %v -> %v; want one read that advances the clock", k, st.reads-reads, now, c.clock.Now())
		}
	}
	if _, found, _ := c.TryFastGet("c"); found {
		t.Error("deleted key served lock-free")
	}
	if _, found, _ := c.Get("c"); found {
		t.Error("deleted key served")
	}

	want["e"] = bytes.Repeat([]byte{5}, 100)
	c.Set("e", want["e"], 100)
	if got, found, done := c.TryFastGet("e"); !done || !found || !bytes.Equal(got, want["e"]) {
		t.Errorf("TryFastGet(e) in the open region = (%d bytes, found %v, done %v)", len(got), found, done)
	}
	var held int64
	for i := range c.regions.meta {
		if s := c.regions.meta[i].state; s == regionOpen || s == regionFlushing {
			held += st.regionSize
		}
	}
	reg := obs.NewRegistry()
	c.MetricsInto(reg, obs.Labels{})
	if got := gatherSum(t, reg, "cache_dram_bytes"); got != float64(held) {
		t.Errorf("cache_dram_bytes = %v, the open and in-flight buffers are %d bytes", got, held)
	}
}

// TestTrackedNilValueReadsZeros: with TrackValues, a nil-value insert (the
// facade's SetSized) reads back as valLen zero bytes, open or sealed, with no
// key lost, even in a recycled buffer that holds two earlier regions' junk.
func TestTrackedNilValueReadsZeros(t *testing.T) {
	c, _ := newTestCache(t, 8, 4096)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		must(c.Set(fmt.Sprint("junk-", i), bytes.Repeat([]byte{0xAA}, 3000), 0))
		must(c.SealOpen())
		c.Drain()
	}
	keys := []string{"nil-0", "nil-1", "nil-2"}
	for _, k := range keys {
		must(c.Set(k, nil, 100))
	}
	for _, when := range []string{"open", "sealed"} {
		if when == "sealed" {
			must(c.SealOpen())
		}
		for _, k := range keys {
			if v, ok, err := c.Get(k); err != nil || !ok || !bytes.Equal(v, make([]byte, 100)) {
				t.Fatalf("%s Get(%s) = (%x, %v, %v), want 100 zero bytes", when, k, v, ok, err)
			}
		}
	}
	if st := c.Stats(); st.LostKeys != 0 || st.Quarantined != 0 {
		t.Fatalf("%d keys lost, %d regions quarantined", st.LostKeys, st.Quarantined)
	}
}
