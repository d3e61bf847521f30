package bigobj_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/sim"
)

// fetchPath is one of the two chunk-fetch paths bigobj.New resolves: the
// engine's GetBuf into store-recycled buffers, or the Get-only fallback that
// cache.Sharded and decorating backends take.
type fetchPath struct {
	name string
	wrap func(*cache.Cache) bigobj.Backend
}

var fetchPaths = []fetchPath{
	{"GetBuf", func(c *cache.Cache) bigobj.Backend { return c }},
	{"Get", func(c *cache.Cache) bigobj.Backend { return getOnly{c} }},
}

// getOnly exposes nothing of the engine but bigobj.Backend's methods.
type getOnly struct{ bigobj.Backend }

// forEachFetchPath runs fn as one subtest per fetch path.
func forEachFetchPath(t *testing.T, fn func(t *testing.T, fp fetchPath)) {
	for _, fp := range fetchPaths {
		t.Run(fp.name, func(t *testing.T) { fn(t, fp) })
	}
}

// testStore builds a bigobj store over a tiny real rig of the given scheme.
// 10 × 256 KiB zones, 64 KiB regions, values tracked — the same profile the
// crash harness uses, so every structure (flush, seal, eviction, GC) cycles
// even in unit tests.
func testStore(t *testing.T, scheme harness.Scheme, chunkSize int) (*bigobj.Store, *harness.Rig) {
	return testStoreVia(t, scheme, chunkSize, fetchPaths[0])
}

// testStoreVia is testStore with the store reading chunks through fp.
func testStoreVia(t *testing.T, scheme harness.Scheme, chunkSize int, fp fetchPath) (*bigobj.Store, *harness.Rig) {
	t.Helper()
	hw := harness.HWProfile{Zones: 10, BlocksPerZone: 4, PagesPerBlock: 16, Channels: 4, DiesPerChan: 1}
	rig, err := harness.Build(harness.RigConfig{
		Scheme:      scheme,
		HW:          hw,
		CacheBytes:  6 * hw.ZoneBytes(),
		RegionBytes: 64 << 10,
		TrackValues: true,
	})
	if err != nil {
		t.Fatalf("build rig: %v", err)
	}
	st, err := bigobj.New(bigobj.Config{Backend: fp.wrap(rig.Engine), ChunkSize: chunkSize, Clock: rig.Clock})
	if err != nil {
		t.Fatalf("bigobj.New: %v", err)
	}
	return st, rig
}

// pattern fills a deterministic, position-dependent byte slice so any
// misplaced chunk or offset error corrupts the comparison.
func pattern(seed uint64, n int) []byte {
	b := make([]byte, n)
	r := sim.NewRand(seed)
	r.Bytes(b)
	return b
}

func TestPutReadRoundTrip(t *testing.T) {
	for _, scheme := range harness.AllSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			forEachFetchPath(t, func(t *testing.T, fp fetchPath) {
				testPutReadRoundTrip(t, scheme, fp)
			})
		})
	}
}

func testPutReadRoundTrip(t *testing.T, scheme harness.Scheme, fp fetchPath) {
	st, _ := testStoreVia(t, scheme, 8<<10, fp)
	// Sizes around every boundary: sub-chunk, exact multiples, straddles,
	// and empty.
	sizes := []int{0, 1, 100, 8 << 10, 8<<10 + 1, 16 << 10, 40<<10 - 7}
	for i, n := range sizes {
		key := "obj-" + string(rune('a'+i))
		want := pattern(uint64(i+1), n)
		if err := st.Put(key, bytes.NewReader(want), 0); err != nil {
			t.Fatalf("Put(%q, %d bytes): %v", key, n, err)
		}
		stat, err := st.Stat(key)
		if err != nil {
			t.Fatalf("Stat(%q): %v", key, err)
		}
		if stat.Size != int64(n) {
			t.Fatalf("Stat(%q).Size = %d, want %d", key, stat.Size, n)
		}
		wantChunks := (n + 8<<10 - 1) / (8 << 10)
		if stat.ChunkCount != wantChunks {
			t.Fatalf("Stat(%q).ChunkCount = %d, want %d", key, stat.ChunkCount, wantChunks)
		}
		got := make([]byte, n)
		rn, err := st.ReadAt(key, got, 0)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%q): %v", key, err)
		}
		if rn != n || !bytes.Equal(got, want) {
			t.Fatalf("ReadAt(%q) = %d bytes, mismatch=%v", key, rn, !bytes.Equal(got, want))
		}
	}
}

func TestRangeReadEdgeCases(t *testing.T) {
	forEachFetchPath(t, testRangeReadEdgeCases)
}

func testRangeReadEdgeCases(t *testing.T, fp fetchPath) {
	const chunk = 8 << 10
	st, _ := testStoreVia(t, harness.RegionCache, chunk, fp)
	size := 3*chunk + 100 // 4 chunks, short tail
	want := pattern(7, size)
	if err := st.Put("obj", bytes.NewReader(want), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}

	readRange := func(off, length int64) ([]byte, error) {
		rr, err := st.NewRangeReader("obj", off, length)
		if err != nil {
			return nil, err
		}
		defer rr.Close()
		return io.ReadAll(rr)
	}

	cases := []struct {
		name        string
		off, length int64
		want        []byte
	}{
		{"full", 0, -1, want},
		{"exact length", 0, int64(size), want},
		{"span chunk boundary", chunk - 10, 20, want[chunk-10 : chunk+10]},
		{"span three chunks", chunk / 2, 2 * chunk, want[chunk/2 : chunk/2+2*chunk]},
		{"tail chunk only", 3 * chunk, -1, want[3*chunk:]},
		{"off+len past tail", int64(size) - 50, 1000, want[size-50:]},
		{"zero length", chunk, 0, []byte{}},
		{"zero length at zero", 0, 0, []byte{}},
		{"off at tail", int64(size), -1, []byte{}},
		{"off past tail", int64(size) + 5000, 10, []byte{}},
		{"single byte at boundary", chunk, 1, want[chunk : chunk+1]},
	}
	for _, tc := range cases {
		got, err := readRange(tc.off, tc.length)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: got %d bytes, want %d (content mismatch=%v)",
				tc.name, len(got), len(tc.want), !bytes.Equal(got, tc.want))
		}
	}

	if _, err := st.NewRangeReader("obj", -1, 10); err == nil {
		t.Fatalf("negative offset: want error")
	}

	// ReadAt semantics: short read at the tail returns io.EOF with the
	// bytes up to the tail.
	p := make([]byte, 200)
	n, err := st.ReadAt("obj", p, int64(size)-50)
	if n != 50 || err != io.EOF {
		t.Fatalf("ReadAt past tail = (%d, %v), want (50, EOF)", n, err)
	}
	if !bytes.Equal(p[:n], want[size-50:]) {
		t.Fatalf("ReadAt past tail returned wrong bytes")
	}
	// Zero-length ReadAt on a present object succeeds with no error.
	if n, err := st.ReadAt("obj", nil, 0); n != 0 || err != nil {
		t.Fatalf("zero-length ReadAt = (%d, %v), want (0, nil)", n, err)
	}
	// ReadAt with offset at/past the tail is (0, EOF).
	if n, err := st.ReadAt("obj", p, int64(size)); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at tail = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestOpenReadsOnlyTheChunksItServes is the read path's count-clock oracle:
// chunk 0 travels inside the manifest value, so a range read costs exactly
// one engine get for the manifest plus one per chunk >= 1 it touches, and no
// put ever leaves an "obj/0" key or a stale tail chunk behind.
func TestOpenReadsOnlyTheChunksItServes(t *testing.T) {
	forEachFetchPath(t, testOpenReadsOnlyTheChunksItServes)
}

func testOpenReadsOnlyTheChunksItServes(t *testing.T, fp fetchPath) {
	const chunk = 8 << 10
	st, rig := testStoreVia(t, harness.RegionCache, chunk, fp)
	gets := func() uint64 { return rig.Engine.Stats().Gets }
	// noStrayChunks checks that exactly obj/1..obj/<count-1> exist.
	noStrayChunks := func(size int) {
		t.Helper()
		count := (size + chunk - 1) / chunk
		for i := 0; i <= 4; i++ {
			ck := "obj/" + string(rune('0'+i))
			if want := i >= 1 && i < count; rig.Engine.Contains(ck) != want {
				t.Fatalf("size %d: Contains(%q) = %v, want %v", size, ck, !want, want)
			}
		}
	}
	ranges := []struct {
		name        string
		off, length int64
	}{
		{"whole", 0, -1},
		{"inside chunk 0", 1, chunk / 2},
		{"from chunk 1", chunk + 1, chunk / 2},
		{"chunks 0-1", chunk - 10, 20},
	}
	// The last size shrinks a three-chunk object to one chunk.
	for i, size := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk, chunk - 1} {
		want := pattern(uint64(100+i), size)
		if err := st.Put("obj", bytes.NewReader(want), 0); err != nil {
			t.Fatalf("Put(%d bytes): %v", size, err)
		}
		noStrayChunks(size)
		for _, rg := range ranges {
			end := int64(size)
			if rg.length >= 0 && rg.off+rg.length < end {
				end = rg.off + rg.length
			}
			var touched uint64 // chunks >= 1 the range overlaps
			if rg.off < end {
				first := max(rg.off/chunk, 1)
				touched = uint64(max((end-1)/chunk-first+1, 0))
			}
			g0 := gets()
			rr, err := st.NewRangeReader("obj", rg.off, rg.length)
			if err != nil {
				t.Fatalf("size %d %s: open: %v", size, rg.name, err)
			}
			got, err := io.ReadAll(rr)
			rr.Close()
			if err != nil {
				t.Fatalf("size %d %s: read: %v", size, rg.name, err)
			}
			if d := gets() - g0; d != 1+touched {
				t.Errorf("size %d %s: %d engine gets, want %d", size, rg.name, d, 1+touched)
			}
			if lo := min(rg.off, end); !bytes.Equal(got, want[lo:end]) {
				t.Errorf("size %d %s: read %d bytes, mismatch with the put", size, rg.name, len(got))
			}
		}
	}
}

func TestMissAndDelete(t *testing.T) {
	st, _ := testStore(t, harness.RegionCache, 8<<10)
	if _, err := st.NewRangeReader("ghost", 0, -1); !errors.Is(err, bigobj.ErrNotFound) {
		t.Fatalf("open absent object: %v, want ErrNotFound", err)
	}
	want := pattern(3, 20<<10)
	if err := st.Put("obj", bytes.NewReader(want), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !st.Delete("obj") {
		t.Fatalf("Delete: want true")
	}
	if st.Delete("obj") {
		t.Fatalf("second Delete: want false")
	}
	if _, err := st.NewRangeReader("obj", 0, -1); !errors.Is(err, bigobj.ErrNotFound) {
		t.Fatalf("open deleted object: %v, want ErrNotFound", err)
	}
	s := st.Stats()
	if s.Deletes != 1 || s.ObjectMisses != 2 {
		t.Fatalf("stats after delete: %+v", s)
	}
}

// failingGet is a backend whose reads fail with errBackend, as an engine
// whose device keeps failing does.
type failingGet struct{ bigobj.Backend }

var errBackend = errors.New("backend read failed")

func (failingGet) Get(string) ([]byte, bool, error) { return nil, false, errBackend }

// TestBackendFailureIsNotAMiss: a manifest read that fails in the backend is
// returned as that failure, naming the key — not as ErrNotFound, which
// would send a read-through caller to refill over a failing backend — and
// is not counted as an object miss.
func TestBackendFailureIsNotAMiss(t *testing.T) {
	_, rig := testStore(t, harness.RegionCache, 8<<10)
	st, err := bigobj.New(bigobj.Config{Backend: failingGet{rig.Engine}, ChunkSize: 8 << 10, Clock: rig.Clock})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.NewRangeReader("obj", 0, -1)
	if !errors.Is(err, errBackend) || errors.Is(err, bigobj.ErrNotFound) || !strings.Contains(err.Error(), `"obj"`) {
		t.Fatalf("open over a failing backend: %v, want the backend's error with the key", err)
	}
	if _, err := st.Stat("obj"); !errors.Is(err, errBackend) {
		t.Fatalf("Stat over a failing backend: %v, want the backend's error", err)
	}
	if s := st.Stats(); s.ObjectMisses != 0 {
		t.Fatalf("a backend failure counted %d object misses", s.ObjectMisses)
	}
}

// TestMissAllocatesAtMostOnce: opening an absent object builds no message,
// only the small error naming the key, which still matches ErrNotFound.
func TestMissAllocatesAtMostOnce(t *testing.T) {
	st, _ := testStore(t, harness.RegionCache, 8<<10)
	var err error
	allocs := testing.AllocsPerRun(100, func() { _, err = st.NewRangeReader("ghost", 0, -1) })
	if !errors.Is(err, bigobj.ErrNotFound) || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("open absent object: %v, want ErrNotFound naming the key", err)
	}
	if allocs > 1 {
		t.Fatalf("a miss allocates %.1f objects, want at most 1", allocs)
	}
}

func TestExpiryManifestFirst(t *testing.T) {
	st, rig := testStore(t, harness.RegionCache, 8<<10)
	want := pattern(9, 20<<10)
	if err := st.Put("obj", bytes.NewReader(want), 10*time.Second); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := st.ReadAt("obj", got, 0); err != nil {
		t.Fatalf("ReadAt before expiry: %v", err)
	}
	// Step the virtual clock past the manifest TTL but inside the chunk
	// slack window: the manifest must expire first, so the object misses
	// whole — never a partial read of surviving chunks.
	rig.Clock.Advance(11 * time.Second)
	if _, err := st.NewRangeReader("obj", 0, -1); !errors.Is(err, bigobj.ErrNotFound) {
		t.Fatalf("open expired object: %v, want ErrNotFound", err)
	}
	if st.Stats().PartialMisses != 0 {
		t.Fatalf("expiry produced a partial miss; want whole-object miss")
	}
}

func TestOverwriteShrinksAndBumpsGeneration(t *testing.T) {
	const chunk = 8 << 10
	st, _ := testStore(t, harness.RegionCache, chunk)
	big := pattern(11, 5*chunk)
	if err := st.Put("obj", bytes.NewReader(big), 0); err != nil {
		t.Fatalf("Put big: %v", err)
	}
	small := pattern(12, chunk+10)
	if err := st.Put("obj", bytes.NewReader(small), 0); err != nil {
		t.Fatalf("Put small: %v", err)
	}
	got := make([]byte, len(small))
	n, err := st.ReadAt("obj", got, 0)
	if err != nil || n != len(small) || !bytes.Equal(got, small) {
		t.Fatalf("read after shrink: n=%d err=%v match=%v", n, err, bytes.Equal(got, small))
	}
	stat, err := st.Stat("obj")
	if err != nil || stat.ChunkCount != 2 {
		t.Fatalf("Stat after shrink: %+v err=%v", stat, err)
	}
}

func TestPartialObjectMissAfterChunkLoss(t *testing.T) {
	const chunk = 8 << 10
	st, rig := testStore(t, harness.RegionCache, chunk)
	want := pattern(21, 4*chunk)
	if err := st.Put("obj", bytes.NewReader(want), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate eviction losing one middle chunk out from under the
	// manifest.
	if !rig.Engine.Delete("obj/2") {
		t.Fatalf("chunk key obj/2 not present")
	}
	got := make([]byte, len(want))
	n, err := st.ReadAt("obj", got, 0)
	if !errors.Is(err, bigobj.ErrPartialObject) {
		t.Fatalf("ReadAt over lost chunk: n=%d err=%v, want ErrPartialObject", n, err)
	}
	// The bytes before the hole were fine; nothing at or past the hole
	// may be returned.
	if n != 2*chunk {
		t.Fatalf("ReadAt returned %d bytes, want %d (stop at lost chunk)", n, 2*chunk)
	}
	if !bytes.Equal(got[:n], want[:n]) {
		t.Fatalf("bytes before the hole mismatch")
	}
	// Lazy repair dropped the manifest: the next open is a clean
	// whole-object miss.
	if _, err := st.NewRangeReader("obj", 0, -1); !errors.Is(err, bigobj.ErrNotFound) {
		t.Fatalf("open after lazy repair: %v, want ErrNotFound", err)
	}
	s := st.Stats()
	if s.PartialMisses != 1 || s.ManifestRepairs != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRepairEager(t *testing.T) {
	const chunk = 8 << 10
	st, rig := testStore(t, harness.RegionCache, chunk)
	for i, key := range []string{"a", "b", "c"} {
		if err := st.Put(key, bytes.NewReader(pattern(uint64(30+i), 3*chunk)), 0); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
	}
	rig.Engine.Delete("b/1")
	dropped := st.Repair([]string{"a", "b", "c", "ghost"})
	if dropped != 1 {
		t.Fatalf("Repair dropped %d, want 1", dropped)
	}
	if st.Contains("b") {
		t.Fatalf("broken manifest survived Repair")
	}
	for _, key := range []string{"a", "c"} {
		got := make([]byte, 3*chunk)
		if _, err := st.ReadAt(key, got, 0); err != nil {
			t.Fatalf("ReadAt(%q) after Repair: %v", key, err)
		}
	}
	if st.Stats().ManifestRepairs != 1 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

func TestChunkMustFitRegion(t *testing.T) {
	hw := harness.HWProfile{Zones: 10, BlocksPerZone: 4, PagesPerBlock: 16, Channels: 4, DiesPerChan: 1}
	rig, err := harness.Build(harness.RigConfig{
		Scheme:      harness.RegionCache,
		HW:          hw,
		CacheBytes:  6 * hw.ZoneBytes(),
		RegionBytes: 64 << 10,
		TrackValues: true,
	})
	if err != nil {
		t.Fatalf("build rig: %v", err)
	}
	if _, err := bigobj.New(bigobj.Config{Backend: rig.Engine, ChunkSize: 128 << 10, Clock: rig.Clock}); err == nil {
		t.Fatalf("oversized chunk accepted against 64 KiB regions")
	}
}

// Both engine frontends satisfy the Backend seam.
var (
	_ bigobj.Backend = (*cache.Cache)(nil)
	_ bigobj.Backend = (*cache.Sharded)(nil)
)
