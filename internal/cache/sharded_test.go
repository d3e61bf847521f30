package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"znscache/internal/sim"
)

// newTestSharded builds n independent engines over memStores and wraps them
// in a Sharded frontend.
func newTestSharded(t testing.TB, n, regions int, regionSize int64) *Sharded {
	t.Helper()
	engines := make([]*Cache, n)
	for i := range engines {
		st := newMemStore(regions, regionSize)
		c, err := New(Config{Store: st, TrackValues: true})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		engines[i] = c
	}
	s, err := NewSharded(engines)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return s
}

func TestNewShardedRejectsBadInput(t *testing.T) {
	if _, err := NewSharded(nil); err == nil {
		t.Fatal("empty engine list accepted")
	}
	if _, err := NewSharded([]*Cache{nil}); err == nil {
		t.Fatal("nil engine accepted")
	}
	// Two engines sharing one clock must be rejected: they would serialize
	// through the clock and break per-shard determinism.
	clk := sim.NewClock()
	a, _ := New(Config{Store: newMemStore(4, 4096), Clock: clk})
	b, _ := New(Config{Store: newMemStore(4, 4096), Clock: clk})
	if _, err := NewSharded([]*Cache{a, b}); err == nil {
		t.Fatal("shared clock accepted")
	}
	// Two shards over one store must be rejected too.
	st := newMemStore(4, 4096)
	c1, _ := New(Config{Store: st})
	c2, _ := New(Config{Store: st})
	if _, err := NewSharded([]*Cache{c1, c2}); err == nil {
		t.Fatal("shared store accepted")
	}
}

func TestShardedBasicOps(t *testing.T) {
	s := newTestSharded(t, 4, 8, 64<<10)
	const keys = 200
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := s.Set(k, []byte(k), 0); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
	}
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
		if string(v) != k {
			t.Fatalf("Get(%s) returned %q", k, v)
		}
		if !s.Contains(k) {
			t.Fatalf("Contains(%s) = false after Set", k)
		}
	}
	if !s.Delete("key-0000") {
		t.Fatal("Delete of present key returned false")
	}
	if s.Contains("key-0000") {
		t.Fatal("deleted key still present")
	}
	if s.Delete("never-set") {
		t.Fatal("Delete of absent key returned true")
	}
	st := s.Stats()
	if st.Sets != keys {
		t.Fatalf("merged Sets = %d, want %d", st.Sets, keys)
	}
	if st.Hits != keys {
		t.Fatalf("merged Hits = %d, want %d", st.Hits, keys)
	}
	if st.GetLatency.Count != keys {
		t.Fatalf("merged get histogram count = %d, want %d", st.GetLatency.Count, keys)
	}
}

func TestShardedShardForStableAndCovering(t *testing.T) {
	s := newTestSharded(t, 4, 4, 64<<10)
	hitShards := make(map[int]int)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := s.ShardFor(k), s.ShardFor(k)
		if a != b {
			t.Fatalf("ShardFor(%s) unstable: %d then %d", k, a, b)
		}
		if a < 0 || a >= s.NumShards() {
			t.Fatalf("ShardFor(%s) = %d out of range", k, a)
		}
		hitShards[a]++
	}
	for i := 0; i < s.NumShards(); i++ {
		if hitShards[i] == 0 {
			t.Fatalf("hash never picked shard %d over 1000 keys", i)
		}
	}
}

// TestShardedConcurrent drives mixed Get/Set/Delete from 8 goroutines; run
// under -race it checks the frontend's locking discipline.
func TestShardedConcurrent(t *testing.T) {
	s := newTestSharded(t, 4, 8, 64<<10)
	const goroutines = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRand(ShardSeed(42, g))
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("key-%04d", rng.Intn(500))
				switch rng.Intn(10) {
				case 0:
					s.Delete(k)
				case 1, 2, 3:
					if err := s.Set(k, nil, 1024); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
				default:
					if _, _, err := s.Get(k); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
				if i%500 == 0 {
					s.Stats() // stats may be read concurrently with ops
					s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	st := s.Stats()
	if st.Gets+st.Sets+st.Deletes != goroutines*opsPer {
		t.Fatalf("ops accounted = %d, want %d",
			st.Gets+st.Sets+st.Deletes, goroutines*opsPer)
	}
}

// shardedReplay replays a seeded op stream against s, one goroutine per
// shard: every goroutine scans the same derived stream and applies only the
// ops whose key hashes to its shard, so each shard sees a fixed sequence
// regardless of scheduling.
func shardedReplay(t *testing.T, s *Sharded, seed uint64, ops int) Stats {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(s.NumShards())
	for shard := 0; shard < s.NumShards(); shard++ {
		go func(shard int) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for i := 0; i < ops; i++ {
				kind := rng.Intn(10)
				k := fmt.Sprintf("key-%05d", rng.Intn(2000))
				if s.ShardFor(k) != shard {
					continue
				}
				switch kind {
				case 0:
					s.Delete(k)
				case 1, 2, 3, 4:
					if err := s.Set(k, nil, 2048); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
				default:
					if _, _, err := s.Get(k); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
	s.Drain()
	return s.Stats()
}

// TestShardedDeterminism asserts the tentpole's contract: two concurrent
// replays with the same seed and shard count produce identical merged stats,
// byte for byte, despite nondeterministic goroutine scheduling.
func TestShardedDeterminism(t *testing.T) {
	const seed = 7
	const ops = 20_000
	a := shardedReplay(t, newTestSharded(t, 4, 8, 64<<10), seed, ops)
	b := shardedReplay(t, newTestSharded(t, 4, 8, 64<<10), seed, ops)
	if a != b {
		t.Fatalf("same-seed sharded replays diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if a.Sets == 0 || a.Gets == 0 {
		t.Fatalf("replay did no work: %+v", a)
	}
}

// TestShardedStatsMergeHistogram checks the latency merge is a true union:
// per-shard sample counts sum and the merged max dominates every shard max.
func TestShardedStatsMergeHistogram(t *testing.T) {
	s := newTestSharded(t, 3, 8, 64<<10)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		s.Set(k, nil, 4096)
		s.Get(k)
	}
	var want uint64
	var maxShard time.Duration
	for i := 0; i < s.NumShards(); i++ {
		st := s.ShardStats(i)
		want += st.GetLatency.Count
		if st.GetLatency.Max > maxShard {
			maxShard = st.GetLatency.Max
		}
	}
	merged := s.Stats()
	if merged.GetLatency.Count != want {
		t.Fatalf("merged count = %d, want sum of shards %d", merged.GetLatency.Count, want)
	}
	if merged.GetLatency.Max != maxShard {
		t.Fatalf("merged max = %v, want shard max %v", merged.GetLatency.Max, maxShard)
	}
}

// TestContainsExpiredItem is the regression test for the Contains TTL bug:
// Contains used to report true for items Get already considered dead.
func TestContainsExpiredItem(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	if err := c.SetTTL("k", []byte("v"), 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("k") {
		t.Fatal("item absent before its TTL")
	}
	c.Clock().Advance(5 * time.Second)
	if c.Contains("k") {
		t.Fatal("Contains returned true for a TTL-expired item")
	}
	if c.Stats().Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1 (lazy expiry via Contains)", c.Stats().Expirations)
	}
	// The lazy removal must match Get's: the entry is gone, not just hidden.
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("expired item visible to Get after Contains")
	}
	if c.Stats().Expirations != 1 {
		t.Fatalf("Get re-expired an already-removed item: %d", c.Stats().Expirations)
	}
}

// TestFillLogRing checks the bounded fill log: capped length, chronological
// order, and exact FillCount/EvictionOnset even after trimming.
func TestFillLogRing(t *testing.T) {
	st := newMemStore(4, 4096)
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; c.FillCount() < fillLogCap+100; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), nil, 900); err != nil {
			t.Fatal(err)
		}
	}
	log := c.FillLog()
	if len(log) != fillLogCap {
		t.Fatalf("fill log len = %d, cap %d", len(log), fillLogCap)
	}
	for i := 1; i < len(log); i++ {
		if log[i].Seq != log[i-1].Seq+1 {
			t.Fatalf("ring out of order: %d after %d", log[i].Seq, log[i-1].Seq)
		}
	}
	if log[len(log)-1].Seq != c.FillCount()-1 {
		t.Fatalf("newest record seq %d, want %d", log[len(log)-1].Seq, c.FillCount()-1)
	}
	onset, ok := c.EvictionOnset()
	if !ok {
		t.Fatal("eviction never recorded despite cache turnover")
	}
	// With 4 regions the first eviction happens on the 4th roll (seq 3).
	if onset != 3 {
		t.Fatalf("eviction onset seq = %d, want 3", onset)
	}
}

// TestRegionDroppableCachedMatchesScan cross-checks the amortized cold-set
// cache against a reference walk of the eviction order, across mutations
// (Gets that reorder the LRU list and evictions that remove elements).
func TestRegionDroppableCachedMatchesScan(t *testing.T) {
	st := newMemStore(8, 4096)
	c, err := New(Config{Store: st, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(11)
	check := func() {
		t.Helper()
		// Reference: walk the back of the order list directly.
		want := make(map[int]bool)
		limit := int(float64(c.regions.order.Len()) * coldFrac)
		for e, i := c.regions.order.Back(), 0; e != nil && i < limit; e, i = e.Prev(), i+1 {
			want[e.Value.(int)] = true
		}
		for id := 0; id < 8; id++ {
			m := &c.regions.meta[id]
			wantDrop := want[id] && m.state == regionSealed && m.elem != nil
			if got := c.RegionDroppable(id); got != wantDrop {
				t.Fatalf("RegionDroppable(%d) = %v, reference scan says %v", id, got, wantDrop)
			}
		}
	}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(120))
		if rng.Intn(3) == 0 {
			c.Set(k, nil, 1000)
		} else {
			c.Get(k)
		}
		if i%25 == 0 {
			check()
			c.Drain()
			check() // the drain's seals must invalidate the cached set
		}
	}
}
