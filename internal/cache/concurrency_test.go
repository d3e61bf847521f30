package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"znscache/internal/obs"
)

// newTestShardedFast builds n independent engines with the lock-free read
// index enabled and wraps them in a Sharded frontend — the serving-layer
// configuration (Config.ReadIndex on, values tracked). opts adjust each
// engine's Config.
func newTestShardedFast(t testing.TB, n, regions int, regionSize int64, opts ...func(*Config)) *Sharded {
	t.Helper()
	engines := make([]*Cache, n)
	for i := range engines {
		cfg := Config{Store: newMemStore(regions, regionSize), TrackValues: true, ReadIndex: true}
		for _, o := range opts {
			o(&cfg)
		}
		c, err := New(cfg)
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

// testRNG is a splitmix64 stepper for deterministic op streams.
type testRNG struct{ s uint64 }

func (r *testRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// TestFastReadStressOneShard hammers a single shard from many goroutines at
// once — lock-free Gets, GetMulti batches and Contains racing locked Sets,
// TTL sets, Deletes, clock advances and periodic SealOpen via WithShard, and
// whole-cache Len/Stats cuts — under every policy setting that changes which
// notes the fast path queues. Run under -race this is the read path's
// memory-safety oracle. Once the storm is over, the get counters must hold
// exactly the lookups the readers issued, batched or not: every fast answer
// equals the locked Get's, a zero-length value is served lock-free,
// cache_dram_bytes equals the bytes behind images held in memory, touch
// notes are queued only when a policy reads them, and every entry points at
// a live region.
func TestFastReadStressOneShard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"FIFO", FIFO},
		{"LRU", LRU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestShardedFast(t, 1, 8, 32<<10, func(cfg *Config) {
				cfg.Policy = tc.policy
			})
			stressOneShard(t, s)
			checkQuiescentShard(t, s, tc.policy == LRU)
		})
	}
}

const stressKeys = 200

func stressKey(i uint64) string { return fmt.Sprintf("stress-%03d", i%stressKeys) }

// stressEmptyKey always holds a zero-length value.
var stressEmptyKey = stressKey(0)

func stressValue(k string) []byte {
	if k == stressEmptyKey {
		return []byte{}
	}
	return []byte(k)
}

func stressOneShard(t *testing.T, s *Sharded) {
	// Warm the shard so readers see a mix of hits and misses from the start.
	for i := uint64(0); i < stressKeys; i += 2 {
		if err := s.Set(stressKey(i), stressValue(stressKey(i)), 0); err != nil {
			t.Fatalf("warm Set: %v", err)
		}
	}

	const (
		writers = 2
		readers = 4
		opsEach = 3000
	)
	var wg sync.WaitGroup
	var writing atomic.Int32 // writers still running
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			defer writing.Add(-1)
			rng := testRNG{s: seed}
			for i := 0; i < opsEach; i++ {
				r := rng.next()
				k := stressKey(r)
				switch r % 20 {
				case 0, 1, 2, 3, 4, 5, 6, 7:
					if err := s.Set(k, stressValue(k), 0); err != nil {
						t.Errorf("Set(%s): %v", k, err)
						return
					}
				case 8, 9, 10, 11:
					ttl := time.Second + time.Duration(r>>32%1000)*time.Millisecond
					if err := s.SetTTL(k, stressValue(k), 0, ttl); err != nil {
						t.Errorf("SetTTL(%s): %v", k, err)
						return
					}
				case 12, 13, 14, 15:
					s.Delete(k)
				case 16, 17, 18:
					// Move the shard clock so TTL'd items expire under the
					// readers, on both the fast and the locked path.
					s.WithShard(0, func(c *Cache) { c.Clock().Advance(100 * time.Millisecond) })
				default:
					// Seal the open region mid-traffic: readers must keep
					// serving across the open→sealed transition.
					s.WithShard(0, func(c *Cache) { c.SealOpen() }) //nolint:errcheck
				}
			}
		}(uint64(w) + 1)
	}
	// Readers keep going until the writers finish, so every write, TTL
	// deadline and seal lands under concurrent lookups. They alternate single
	// Gets with GetMulti batches of 1–32 keys, duplicates included, and count
	// every lookup they issue and every hit they are told of.
	var lookups, hits atomic.Uint64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := testRNG{s: seed}
			var (
				keys  = make([]string, 32)
				vals  = make([][]byte, 32)
				found = make([]bool, 32)
				errs  = make([]error, 32)
			)
			for i := 0; i < opsEach || writing.Load() > 0; i++ {
				r := rng.next()
				n := 1
				switch r % 3 {
				case 0:
					keys[0] = stressKey(r)
					vals[0], found[0], errs[0] = s.Get(keys[0])
				case 1:
					n = 1 + int(r>>8%32)
					for j := 0; j < n; j++ {
						if j > 0 && rng.next()%4 == 0 {
							keys[j] = keys[j-1]
						} else {
							keys[j] = stressKey(rng.next())
						}
					}
					s.GetMulti(keys[:n], vals[:n], found[:n], errs[:n])
				default:
					s.Contains(stressKey(r))
					continue
				}
				lookups.Add(uint64(n))
				for j, k := range keys[:n] {
					if errs[j] != nil {
						t.Errorf("get %s: %v", k, errs[j])
						return
					}
					if found[j] {
						hits.Add(1)
						if !bytes.Equal(vals[j], stressValue(k)) {
							t.Errorf("get %s returned %q", k, vals[j])
							return
						}
					}
				}
			}
		}(uint64(100 + g))
	}
	// Consistent cuts while both paths run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if n := s.Len(); n < 0 || n > stressKeys {
				t.Errorf("Len = %d out of range", n)
				return
			}
			s.Stats()
		}
	}()
	wg.Wait()

	// Per-key and batched lookups are accounted alike: the counters hold
	// exactly the lookups issued and the hits returned. Every value set here
	// has its bytes in DRAM, so the lock-free path answered all of them.
	st := s.Stats()
	n, h := lookups.Load(), hits.Load()
	if st.Gets != n || st.Hits != h || st.Misses != n-h || st.GetLatency.Count != n {
		t.Fatalf("stats gets=%d hits=%d misses=%d latency count=%d; readers issued %d lookups, %d hits",
			st.Gets, st.Hits, st.Misses, st.GetLatency.Count, n, h)
	}
	if fastHits, fastMisses, _ := s.FastReadStats(); fastHits != h || fastMisses != n-h {
		t.Fatalf("fast reads %d hits / %d misses; readers issued %d lookups, %d hits", fastHits, fastMisses, n, h)
	}
	if h == 0 || h == n {
		t.Fatalf("%d hits in %d lookups: the stress exercised only one outcome", h, n)
	}
	if st.Expirations == 0 {
		t.Fatal("no TTL expired; the clock advances exercised nothing")
	}
}

// checkQuiescentShard is the quiescent half of the oracle, run on shard 0
// under its lock once no other goroutine touches s.
func checkQuiescentShard(t *testing.T, s *Sharded, wantTouches bool) {
	s.WithShard(0, func(c *Cache) {
		// Start at a whole second: the checks below advance the clock by far
		// less than one, so no TTL deadline falls between a fast and a locked
		// lookup of the same key.
		c.Clock().AdvanceTo((c.Clock().Now()/time.Second + 1) * time.Second)

		// A zero-length value is answered lock-free, open and sealed.
		if err := c.Set(stressEmptyKey, []byte{}, 0); err != nil {
			t.Fatal(err)
		}
		for _, where := range []string{"open", "sealed"} {
			if where == "sealed" {
				if err := c.SealOpen(); err != nil {
					t.Fatal(err)
				}
			}
			v, found, done := c.TryFastGet(stressEmptyKey)
			if !done || !found || len(v) != 0 {
				t.Errorf("%s zero-length value: TryFastGet = (%q, found %v, done %v), want a lock-free hit", where, v, found, done)
			}
		}

		for i := uint64(0); i < stressKeys; i++ {
			k := stressKey(i)
			fv, ffound, done := c.TryFastGet(k)
			lv, lfound, err := c.Get(k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if done && (ffound != lfound || !bytes.Equal(fv, lv)) {
				t.Errorf("%s: fast path (%q, %v), locked Get (%q, %v)", k, fv, ffound, lv, lfound)
			}
		}

		// memStore lends views, so a sealed region's image is on the store;
		// only open and flushing ones are on buffers, and the gauge counts
		// those.
		var held int64
		for i := range c.regions.meta {
			m := &c.regions.meta[i]
			if m.img == nil {
				continue
			}
			if ib := m.img.p.Load(); !ib.onStore {
				held += int64(len(ib.b))
				if m.state == regionSealed {
					t.Errorf("sealed region %d's image is still on its buffer", i)
				}
			}
		}
		reg := obs.NewRegistry()
		c.MetricsInto(reg, obs.Labels{})
		if got := gatherSum(t, reg, "cache_dram_bytes"); got != float64(held) {
			t.Errorf("cache_dram_bytes = %v, images hold %d bytes in memory", got, held)
		}

		// Nothing drained the queue since the lookups above, and they hit.
		touches := 0
		for _, n := range c.idx.notes {
			if !n.expire {
				touches++
			}
		}
		if (touches > 0) != wantTouches {
			t.Errorf("%d touch notes queued, want them only when a policy reads them (%v)", touches, wantTouches)
		}
		if err := regionLiveErr(c); err != nil {
			t.Error(err)
		}
	})
}

// TestShardedFastReadReplayDeterminism replays the same seeded per-shard op
// sequences twice — one goroutine per shard, lock-free reads enabled — and
// requires identical merged and per-shard Stats. This is the determinism
// contract from the Sharded doc comment extended to the fast-read path:
// deferred notes drain at locked-op boundaries, so with a single goroutine
// per shard the note processing points (and thus recency, expiry, and every
// counter) depend only on the op sequence, not on cross-shard goroutine
// interleaving. The second replay sends each run of consecutive gets as one
// GetMulti, so it also pins batched gets to the per-key path's effects.
func TestShardedFastReadReplayDeterminism(t *testing.T) {
	const (
		shards  = 4
		keys    = 512
		opsEach = 4000
		seed    = 99
	)
	run := func(batched bool) (Stats, [shards]Stats) {
		s := newTestShardedFast(t, shards, 8, 16<<10)
		// Pre-partition the keyspace so each goroutine only ever touches its
		// own shard: per-shard serialization is what makes the replay
		// deterministic.
		perShard := make([][]string, shards)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("det-%05d", i)
			sh := s.ShardFor(k)
			perShard[sh] = append(perShard[sh], k)
		}
		var wg sync.WaitGroup
		for sh := 0; sh < shards; sh++ {
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				rng := testRNG{s: ShardSeed(seed, sh)}
				mine := perShard[sh]
				var run []string // batched: consecutive gets not yet sent
				flush := func() {
					if len(run) == 0 {
						return
					}
					errs := make([]error, len(run))
					s.GetMulti(run, make([][]byte, len(run)), make([]bool, len(run)), errs)
					for j, err := range errs {
						if err != nil {
							t.Errorf("shard %d GetMulti(%s): %v", sh, run[j], err)
						}
					}
					run = run[:0]
				}
				defer flush()
				for i := 0; i < opsEach; i++ {
					r := rng.next()
					k := mine[r%uint64(len(mine))]
					if r%10 >= 5 {
						flush()
					}
					switch {
					case r%10 < 5 && batched:
						run = append(run, k)
					case r%10 < 5:
						if _, _, err := s.Get(k); err != nil {
							t.Errorf("shard %d Get(%s): %v", sh, k, err)
							return
						}
					case r%10 < 8:
						if err := s.Set(k, []byte(k), 0); err != nil {
							t.Errorf("shard %d Set(%s): %v", sh, k, err)
							return
						}
					case r%10 < 9:
						s.Delete(k)
					default:
						s.Contains(k)
					}
				}
			}(sh)
		}
		wg.Wait()
		var per [shards]Stats
		for i := range per {
			per[i] = s.ShardStats(i)
		}
		return s.Stats(), per
	}

	merged1, per1 := run(false)
	merged2, per2 := run(true)
	if !reflect.DeepEqual(merged1, merged2) {
		t.Fatalf("merged stats differ between per-key and batched replays:\n Get:      %+v\n GetMulti: %+v", merged1, merged2)
	}
	for i := range per1 {
		if !reflect.DeepEqual(per1[i], per2[i]) {
			t.Fatalf("shard %d stats differ between per-key and batched replays:\n Get:      %+v\n GetMulti: %+v", i, per1[i], per2[i])
		}
	}
	if merged1.Gets == 0 || merged1.Sets == 0 {
		t.Fatalf("replay exercised nothing: %+v", merged1)
	}
}
