package cache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"znscache/internal/obs"
)

// flakyStore fails the first failWrites region flushes / failReads region
// reads with a transient error, then behaves normally — the deterministic
// counterpart of the probabilistic fault injector, for pinning down the
// engine's exact retry and quarantine thresholds.
type flakyStore struct {
	*memStore
	failWrites int
	failReads  int
}

var errFlaky = errors.New("flaky store: transient failure")

func (s *flakyStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if data != nil && s.failWrites > 0 {
		s.failWrites--
		return 0, errFlaky
	}
	return s.memStore.WriteRegion(now, id, data)
}

func (s *flakyStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if s.failReads > 0 {
		s.failReads--
		return 0, errFlaky
	}
	return s.memStore.ReadRegion(now, id, p, n, off)
}

func newFlakyCache(t *testing.T) (*Cache, *flakyStore) {
	t.Helper()
	fs := &flakyStore{memStore: newMemStore(8, 4096)}
	c, err := New(Config{
		Store: fs, TrackValues: true, BufferMemory: 2 * 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// gatherSum sums a registry series' samples by name, skipping per-kind
// breakdown series so totals are not double counted.
func gatherSum(t *testing.T, r *obs.Registry, name string) float64 {
	t.Helper()
	total, found := 0.0, false
	for _, s := range r.Gather() {
		if s.Name == name && s.Labels.Get("kind") == "" {
			total += s.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("registry exposes no %q series", name)
	}
	return total
}

// TestFlushRetryAndQuarantine pins the write-path degradation thresholds:
// with two retries (three attempts per flush) and quarantine after three
// exhausted flushes, a flush that fails fewer times than it has attempts
// succeeds transparently, while one that exhausts its attempts loses the
// region's keys. The failed region reopens at once, so three exhausted
// flushes in a row quarantine it — and both outcomes are visible in Stats
// and the obs registry. A failed flush's buffer is recycled like a completed one's,
// so the engine stays within its two-region BufferMemory either way.
func TestFlushRetryAndQuarantine(t *testing.T) {
	cases := []struct {
		name        string
		failures    int
		wantRetries uint64
		wantQuar    uint64
		wantLost    bool
	}{
		{"clean", 0, 0, 0, false},
		{"recovers-within-retries", 2, 2, 0, false},
		{"exhausts-and-quarantines", 9, 6, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fs := newFlakyCache(t)
			fs.failWrites = tc.failures
			vals := map[string][]byte{}
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("w-%02d", i)
				v := bytes.Repeat([]byte{byte(i + 1)}, 900)
				vals[k] = v
				if err := c.Set(k, v, 0); err != nil {
					t.Fatalf("Set(%s): %v", k, err)
				}
			}
			c.Drain()
			st := c.Stats()
			if st.StoreRetries != tc.wantRetries {
				t.Errorf("StoreRetries = %d, want %d", st.StoreRetries, tc.wantRetries)
			}
			if st.Quarantined != tc.wantQuar {
				t.Errorf("Quarantined = %d, want %d", st.Quarantined, tc.wantQuar)
			}
			if tc.wantLost && st.LostKeys == 0 {
				t.Error("exhausted flush lost no keys")
			}
			if !tc.wantLost {
				if st.LostKeys != 0 {
					t.Errorf("LostKeys = %d on a recoverable run", st.LostKeys)
				}
				// Every flushed key must read back intact after the retries.
				for k, want := range vals {
					got, ok, err := c.Get(k)
					if err != nil || !ok {
						t.Fatalf("Get(%s) = (%v, %v) after recovered flush", k, ok, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("key %s corrupted across retried flush", k)
					}
				}
			}

			reg := obs.NewRegistry()
			c.MetricsInto(reg, obs.Labels{})
			if got := gatherSum(t, reg, "cache_store_retries_total"); got != float64(tc.wantRetries) {
				t.Errorf("cache_store_retries_total = %v, want %d", got, tc.wantRetries)
			}
			if got := gatherSum(t, reg, "region_quarantined_total"); got != float64(tc.wantQuar) {
				t.Errorf("region_quarantined_total = %v, want %d", got, tc.wantQuar)
			}
			checkBufferBound(t, c)
		})
	}
}

// TestReadRetryAndQuarantine pins the read path: a sealed-region read that
// recovers within its retry budget serves the verified value; one that
// exhausts it degrades to a miss and drops the key rather than erroring the
// lookup, and the third such key quarantines the region.
func TestReadRetryAndQuarantine(t *testing.T) {
	cases := []struct {
		name        string
		failures    int
		wantHit     bool
		wantRetries uint64
		wantQuar    uint64
	}{
		{"clean", 0, true, 0, 0},
		{"recovers-within-retries", 2, true, 2, 0},
		{"exhausts-drops-and-quarantines", 9, false, 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fs := newFlakyCache(t)
			want := bytes.Repeat([]byte{0x42}, 900)
			if err := c.Set("victim", want, 0); err != nil {
				t.Fatal(err)
			}
			// Seal the victim's region so Get goes through the store.
			for i := 0; c.Stats().Flushes < 1; i++ {
				c.Set(fmt.Sprintf("fill-%03d", i), bytes.Repeat([]byte{9}, 900), 0)
			}
			c.Drain()

			fs.failReads = tc.failures
			region := entryOf(c, "victim").region()
			got, ok, err := c.Get("victim")
			if err != nil {
				t.Fatalf("Get errored instead of degrading: %v", err)
			}
			if ok != tc.wantHit {
				t.Fatalf("hit = %v, want %v", ok, tc.wantHit)
			}
			if tc.wantHit && !bytes.Equal(got, want) {
				t.Fatal("retried read returned wrong bytes")
			}
			// Two more lost keys of the victim's region use up its budget.
			for _, k := range []string{"fill-000", "fill-001"} {
				if tc.wantHit {
					break
				}
				if entryOf(c, k).region() != region {
					t.Fatalf("%s is not in the victim's region", k)
				}
				if _, ok, err := c.Get(k); ok || err != nil {
					t.Fatalf("Get(%s) = (%v, %v), want a miss", k, ok, err)
				}
			}
			st := c.Stats()
			if st.StoreRetries != tc.wantRetries {
				t.Errorf("StoreRetries = %d, want %d", st.StoreRetries, tc.wantRetries)
			}
			if st.Quarantined != tc.wantQuar {
				t.Errorf("Quarantined = %d, want %d", st.Quarantined, tc.wantQuar)
			}
			if !tc.wantHit {
				if c.Contains("victim") {
					t.Error("unreadable key still indexed")
				}
				if st.LostKeys == 0 {
					t.Error("dropped key not counted as lost")
				}
			}
		})
	}
}

// evictFailStore is a memStore whose region evictions always fail.
type evictFailStore struct{ *memStore }

func (s evictFailStore) EvictRegion(time.Duration, int) (time.Duration, error) {
	return 0, errFlaky
}

// TestEvictFailureDropsReinsertCandidates: when a victim's store-side evict
// fails, its reinsertion candidates — keys with hits, kept for re-append —
// leave the cache with the region instead of reappearing in another one.
func TestEvictFailureDropsReinsertCandidates(t *testing.T) {
	c, err := New(Config{
		Store: evictFailStore{newMemStore(4, 4096)}, TrackValues: true,
		Policy: LRU, ReinsertHits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three items fill a region: 12 fill all four, and every other key has
	// a hit, which makes it a reinsertion candidate.
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("e-%02d", i)
		if err := c.Set(k, bytes.Repeat([]byte{byte(i)}, 1200), 0); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
		if i%2 == 0 {
			if _, ok, err := c.Get(k); !ok || err != nil {
				t.Fatalf("Get(%s) = (%v, %v)", k, ok, err)
			}
		}
	}
	// The next set needs a region, and every victim's evict fails.
	c.Set("next", bytes.Repeat([]byte{1}, 1200), 0) //nolint:errcheck
	if c.Stats().Quarantined == 0 {
		t.Fatal("no victim was quarantined")
	}
	if c.Stats().Reinsertions != 0 {
		t.Fatalf("%d candidates of failed evictions reinserted", c.Stats().Reinsertions)
	}
	if err := regionLiveErr(c); err != nil {
		t.Error(err)
	}
}

// TestReinsertReadFailureDropsCandidates: when the read of an evicted
// region's bytes for reinsertion fails, its hot items leave with it. They
// used to be re-appended with no value, and a Get then served whatever the
// recycled buffer held at their offsets — another key's bytes.
func TestReinsertReadFailureDropsCandidates(t *testing.T) {
	fs := &flakyStore{memStore: newMemStore(4, 4096)}
	c, err := New(Config{Store: fs, TrackValues: true, BufferMemory: 2 * 4096, ReinsertHits: 1, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	hot := bytes.Repeat([]byte{0xAD}, 1000)
	if err := c.Set("hot", hot, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("hot"); !ok {
		t.Fatal("hot missing before eviction")
	}
	// Four items fill a region. Fill the other regions up to the roll that
	// evicts hot's, and fail the reads from the last free region's opening.
	for i := 0; c.Stats().Evictions == 0; i++ {
		if len(c.regions.free) == 0 && fs.failReads == 0 {
			fs.failReads = 3
		}
		if err := c.Set(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	if fs.failReads != 2 {
		t.Fatalf("%d read failures left, want 2: the eviction's read did not fail", fs.failReads)
	}
	if got, ok, err := c.Get("hot"); err != nil || ok && !bytes.Equal(got, hot) {
		t.Fatalf("Get(hot) = (%d bytes, %v, %v), not its own value", len(got), ok, err)
	}
	if err := regionLiveErr(c); err != nil {
		t.Fatal(err)
	}
}
