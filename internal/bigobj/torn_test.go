package bigobj_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"znscache/internal/bigobj"
	"znscache/internal/harness"
	"znscache/internal/sim"
)

// TestTornReadOracleUnderEviction is the acceptance-criteria property test:
// under concurrent overwrites and eviction pressure, no range read ever
// returns bytes that are not an exact slice of some version acknowledged for
// that key — never a splice of two generations, never a partially-written
// chunk, never stale bytes after an in-place slot reuse. Reads may fail
// (partial-object miss, whole-object miss); they may never lie.
//
// The object content encodes its version in every byte, so a single torn
// byte anywhere in a returned range breaks the version check. Run under
// -race this also exercises the pin table and store mutex for data races.
func TestTornReadOracleUnderEviction(t *testing.T) {
	const (
		chunk   = 4 << 10
		objects = 6
		readers = 4
	)
	writes := 160
	if testing.Short() {
		writes = 50
	}

	for _, scheme := range []harness.Scheme{harness.RegionCache, harness.ZoneCache} {
		t.Run(scheme.String(), func(t *testing.T) {
			forEachFetchPath(t, func(t *testing.T, fp fetchPath) {
				// A cache much smaller than the working set forces continuous
				// eviction: 6 objects × up to 9 chunks × 4 KiB ≈ 216 KiB of
				// payload cycling through ~1.5 MiB of device with 6 zones of
				// cache — regions seal, evict, and reset throughout the run.
				st, _ := testStoreVia(t, scheme, chunk, fp)

				// version v of object o is (v*objects+o) repeated — any byte
				// identifies both the object and the version that wrote it.
				content := func(o, v int, size int) []byte {
					b := make([]byte, size)
					tag := byte(v*objects + o)
					for i := range b {
						b[i] = tag
					}
					return b
				}
				sizeOf := func(o, v int) int {
					// 2..9 chunks with a ragged tail, varying per version so
					// overwrites shrink and grow across chunk-count boundaries.
					return (2+(o+v)%8)*chunk - (v%2)*137
				}

				// version[o] is the latest acknowledged version of object o;
				// readers accept any version whose tag is consistent across
				// the whole returned range.
				var version [objects]atomic.Int64
				keyOf := func(o int) string { return "t-" + string(rune('a'+o)) }

				var wrong atomic.Int64
				var stop atomic.Bool
				var wg sync.WaitGroup

				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := sim.NewRand(uint64(1000 + r))
						buf := make([]byte, 3*chunk)
						for !stop.Load() {
							o := rng.Intn(objects)
							vAtStart := version[o].Load()
							if vAtStart < 0 {
								continue
							}
							off := int64(rng.Intn(6 * chunk))
							n, err := st.ReadAt(keyOf(o), buf, off)
							if err != nil && !errors.Is(err, bigobj.ErrNotFound) &&
								!errors.Is(err, bigobj.ErrPartialObject) && err != io.EOF {
								t.Errorf("reader %d: unexpected error: %v", r, err)
								wrong.Add(1)
								return
							}
							if n == 0 {
								continue
							}
							got := buf[:n]
							// Every byte of a returned range must carry one
							// consistent (object, version) tag for our object,
							// at a version acknowledged by the writer.
							tag := got[0]
							consistent := true
							for _, b := range got {
								if b != tag {
									consistent = false
									break
								}
							}
							// The commit point is the manifest write inside Put;
							// the writer publishes version[o] just after Put
							// returns, so a read overlapping that gap may
							// legitimately observe vNow+1. Anything outside
							// [vAtStart, vNow+1] — or any mixed-tag range — is
							// a torn read.
							vNow := version[o].Load()
							okTag := false
							if consistent && int(tag)%objects == o {
								v := int(tag) / objects
								okTag = int64(v) >= vAtStart && int64(v) <= vNow+1
							}
							if !okTag {
								wrong.Add(1)
								t.Errorf("reader %d: torn read on %q off=%d n=%d (tag %d, versions %d..%d)",
									r, keyOf(o), off, n, got[0], vAtStart, vNow)
								return
							}
							// Offset/length discipline: the returned range
							// must lie entirely inside the observed version.
							v := int(tag) / objects
							if off+int64(n) > int64(sizeOf(o, v)) {
								wrong.Add(1)
								t.Errorf("reader %d: read past the size of %q v%d", r, keyOf(o), v)
								return
							}
						}
					}(r)
				}

				// Writer: overwrite objects in seeded order, bumping the
				// version only after the Put commits (the manifest is the
				// commit point, so a torn Put must never surface its tag).
				wrng := sim.NewRand(42)
				for o := range version {
					version[o].Store(-1)
				}
				for i := 0; i < writes; i++ {
					o := wrng.Intn(objects)
					v := int(version[o].Load() + 1)
					if v*objects+o > 255 {
						continue // tag space exhausted for this object
					}
					data := content(o, v, sizeOf(o, v))
					if err := st.Put(keyOf(o), bytes.NewReader(data), 0); err != nil {
						t.Fatalf("Put %q v%d: %v", keyOf(o), v, err)
					}
					version[o].Store(int64(v))
					runtime.Gosched() // interleave with the readers
				}
				// Keep the readers running against the final state until they
				// have exercised the read path for real, then stop them.
				for i := 0; i < 10000 && st.Stats().Opens < 500; i++ {
					runtime.Gosched()
				}
				stop.Store(true)
				wg.Wait()

				if w := wrong.Load(); w != 0 {
					t.Fatalf("%d torn reads", w)
				}
				s := st.Stats()
				if s.ChunkHits == 0 {
					t.Fatalf("oracle never served a chunk: %+v", s)
				}
				t.Logf("stats: %+v", s)
			})
		})
	}
}

// TestConcurrentRangeReadersShareLosslessly drives many concurrent range
// readers over a static object while a churn writer evicts everything else,
// checking every read byte-for-byte. This isolates the pin-retention path:
// the hot object's chunks are evicted and refetched continuously, and
// in-flight readers must be served from retained pin data instead of
// tearing. Over the GetBuf path it is also the proof that a recycled read
// buffer is never read after its pin released it: a reader served from a
// buffer already handed to another chunk's fetch returns that chunk's bytes.
func TestConcurrentRangeReadersShareLosslessly(t *testing.T) {
	forEachFetchPath(t, testConcurrentRangeReadersShareLosslessly)
}

func testConcurrentRangeReadersShareLosslessly(t *testing.T, fp fetchPath) {
	const chunk = 4 << 10
	st, _ := testStoreVia(t, harness.RegionCache, chunk, fp)

	size := 9*chunk + 311
	want := pattern(77, size)
	if err := st.Put("hot", bytes.NewReader(want), 0); err != nil {
		t.Fatalf("Put hot: %v", err)
	}

	iters := 300
	if testing.Short() {
		iters = 60
	}

	var stop atomic.Bool
	var churn sync.WaitGroup
	// Churn writer: floods the cache with other objects so the hot
	// object's chunks are constantly evicted.
	churn.Add(1)
	go func() {
		defer churn.Done()
		i := 0
		for !stop.Load() {
			key := "churn-" + string(rune('a'+i%20))
			st.Put(key, bytes.NewReader(pattern(uint64(i), 2*chunk)), 0)
			i++
		}
	}()

	var fails atomic.Int64
	var readersWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := sim.NewRand(uint64(200 + r))
			for i := 0; i < iters; i++ {
				off := int64(rng.Intn(size))
				length := int64(1 + rng.Intn(4*chunk))
				rr, err := st.NewRangeReader("hot", off, length)
				if errors.Is(err, bigobj.ErrNotFound) {
					// Lazy repair may have dropped the object after an
					// eviction-induced partial miss; refill and go on.
					st.Put("hot", bytes.NewReader(want), 0)
					continue
				}
				if err != nil {
					t.Errorf("reader %d: open: %v", r, err)
					return
				}
				got, err := io.ReadAll(rr)
				rr.Close()
				if errors.Is(err, bigobj.ErrPartialObject) {
					fails.Add(1)
					continue // clean failure is allowed; torn bytes are not
				}
				if err != nil {
					t.Errorf("reader %d: read: %v", r, err)
					return
				}
				end := off + length
				if end > int64(size) {
					end = int64(size)
				}
				if !bytes.Equal(got, want[off:end]) {
					t.Errorf("reader %d: torn range [%d,%d)", r, off, end)
					return
				}
			}
		}(r)
	}
	// Readers finish their iteration budget, then the churn writer stops.
	readersWG.Wait()
	stop.Store(true)
	churn.Wait()

	s := st.Stats()
	t.Logf("clean partial misses: %d, deferred evictions: %d, stats: %+v", fails.Load(), s.EvictionsDeferred, s)
}
