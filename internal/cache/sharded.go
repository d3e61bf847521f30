package cache

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"znscache/internal/obs"
	"znscache/internal/stats"
)

// Sharded is a concurrency-safe frontend over N independent Cache engines.
// The keyspace is partitioned by key hash (FNV-1a), so every key always
// lands on the same shard; each shard owns a full engine — its own region
// store partition, virtual clock, and mutex — and goroutines touching
// different shards never contend. This is CacheLib's own recipe (a sharded
// index in front of Navy) applied to the whole engine, and the concurrency
// model the follow-up ZNS work exploits: independent writers over disjoint
// zone sets scale with the device's zone parallelism.
//
// Determinism is preserved per shard: a key's shard depends only on the key
// and the shard count, and each shard serializes its own operations under
// its mutex against its own clock. Replaying the same per-shard operation
// sequences therefore yields byte-identical per-shard (and merged) stats
// regardless of goroutine interleaving across shards.
type Sharded struct {
	shards []shard
}

// shard pairs one engine with the lock that serializes access to it. The
// engine itself stays single-threaded (its simulation contract); the lock
// is the concurrency boundary. Mutating operations (and classic Gets, which
// mutate recency/TTL state) take the write lock; read-only snapshots
// (Len/Stats) take read locks. When the engine's lock-free read index is
// enabled (Config.ReadIndex), Get and Contains are answered without any
// lock at all on the fast path — see readindex.go.
type shard struct {
	mu sync.RWMutex
	c  *Cache
}

// lock takes shard sh's write lock and applies the deferred side effects
// the lock-free read path accumulated since the previous locked operation
// (recency touches, observed TTL expiries). Pairing the drain with lock
// acquisition keeps note processing points deterministic under a per-shard
// replay: the engine state after N locked ops depends only on the op
// sequence and the notes queued between them.
func (sh *shard) lock() {
	sh.mu.Lock()
	sh.c.drainReadNotes()
}

// NewSharded builds a sharded frontend over the given engines. Every engine
// must be independent: its own RegionStore and its own Clock. Sharing a
// clock between shards would serialize them through the clock mutex and make
// merged timings depend on goroutine interleaving, so both are rejected.
// Admission instances are never shared: Config.Admission is a factory, and
// each engine builds its own instance.
func NewSharded(engines []*Cache) (*Sharded, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("%w: sharded frontend needs at least 1 engine", ErrBadConfig)
	}
	seen := make(map[interface{}]int, len(engines))
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("%w: nil engine for shard %d", ErrBadConfig, i)
		}
		if j, dup := seen[e.Clock()]; dup {
			return nil, fmt.Errorf("%w: shards %d and %d share a clock", ErrBadConfig, j, i)
		}
		seen[e.Clock()] = i
		if j, dup := seen[e.store]; dup {
			return nil, fmt.Errorf("%w: shards %d and %d share a store", ErrBadConfig, j, i)
		}
		seen[e.store] = i
	}
	s := &Sharded{shards: make([]shard, len(engines))}
	for i, e := range engines {
		s.shards[i].c = e
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index key maps to: FNV-1a over the key bytes,
// reduced modulo the shard count. Inlined (no hash.Hash allocation) because
// it runs on every operation.
func (s *Sharded) ShardFor(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

// ShardSeed derives shard i's workload seed from a run seed (splitmix64
// step), so seeded replays split deterministically across shards.
func ShardSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Set inserts or replaces key on its shard.
func (s *Sharded) Set(key string, value []byte, valLen int) error {
	sh := &s.shards[s.ShardFor(key)]
	sh.lock()
	defer sh.mu.Unlock()
	return sh.c.Set(key, value, valLen)
}

// SetTTL is Set with a time-to-live on the owning shard's virtual clock.
func (s *Sharded) SetTTL(key string, value []byte, valLen int, ttl time.Duration) error {
	sh := &s.shards[s.ShardFor(key)]
	sh.lock()
	defer sh.mu.Unlock()
	return sh.c.SetTTL(key, value, valLen, ttl)
}

// Get looks up key on its shard. With the engine's read index enabled
// (Config.ReadIndex) most lookups are answered lock-free; such hits return
// the value in place in its region image, which never changes and which
// callers must treat as read-only.
// Lookups the fast path cannot answer (value bytes not in DRAM yet) fall
// back to the classic path under the shard write lock.
func (s *Sharded) Get(key string) ([]byte, bool, error) {
	sh := &s.shards[s.ShardFor(key)]
	var t fastTally
	val, found, err := sh.get(key, &t)
	sh.c.accountFast(t)
	return val, found, err
}

// GetMulti is Get over every key, in order, with results written to the
// parallel slices (server.MultiGetter): each slot holds what Get(keys[i])
// would return. Lock-free answers are counted per shard and folded into
// each touched shard's counters once per call; keys the fast path cannot
// answer take Get's locked path one by one, so the totals, the notes and
// every simulated effect equal those of len(keys) Gets.
func (s *Sharded) GetMulti(keys []string, vals [][]byte, hits []bool, errs []error) {
	var buf [16]fastTally // stays on the stack for up to 16 shards
	tally := buf[:]
	if len(s.shards) > len(buf) {
		tally = make([]fastTally, len(s.shards))
	}
	for j, key := range keys {
		i := s.ShardFor(key)
		vals[j], hits[j], errs[j] = s.shards[i].get(key, &tally[i])
	}
	for i := range s.shards {
		s.shards[i].c.accountFast(tally[i])
	}
}

// get answers one lookup: lock-free when the read index can (counted into
// t, which the caller settles with accountFast), otherwise under the shard
// write lock with the engine's own accounting.
func (sh *shard) get(key string, t *fastTally) ([]byte, bool, error) {
	// Span sampling: 1-in-N gets time the path taken (lock-free fast path
	// vs locked fallback) on the wall clock. The sampling decision is one
	// atomic add; unsampled gets touch no clock.
	rec := sh.c.spans
	sampled := rec != nil && rec.SampleNow()
	var w0 time.Time
	if sampled {
		w0 = time.Now()
	}
	if val, found, done := sh.c.fastLookup(key, t); done {
		if sampled {
			rec.Observe(obs.StageFastGet, time.Since(w0))
		}
		return val, found, nil
	}
	sh.lock()
	defer sh.mu.Unlock()
	val, found, err := sh.c.Get(key)
	if sampled {
		rec.Observe(obs.StageLockedGet, time.Since(w0))
	}
	return val, found, err
}

// Contains reports whether key is present (TTL-expired items count as
// absent, as in Cache.Contains). Lock-free when the read index is enabled.
func (s *Sharded) Contains(key string) bool {
	sh := &s.shards[s.ShardFor(key)]
	if found, done := sh.c.TryFastContains(key); done {
		return found
	}
	sh.lock()
	defer sh.mu.Unlock()
	return sh.c.Contains(key)
}

// Delete removes key from its shard.
func (s *Sharded) Delete(key string) bool {
	sh := &s.shards[s.ShardFor(key)]
	sh.lock()
	defer sh.mu.Unlock()
	return sh.c.Delete(key)
}

// WithShard runs fn against shard i's engine under the shard write lock,
// with deferred read notes drained first. This is the batch-dispatch hook:
// a caller holding several mutations for one shard executes them all in one
// critical section instead of taking the lock per operation. fn must not
// retain the engine past its return.
func (s *Sharded) WithShard(i int, fn func(*Cache)) {
	sh := &s.shards[i]
	sh.lock()
	defer sh.mu.Unlock()
	fn(sh.c)
}

// rlockAll takes every shard's read lock in shard order and returns the
// release function. While held, no mutator can run on any shard, so the
// caller observes one consistent cut of the whole cache: every operation is
// either fully before or fully after the snapshot. Two qualifications,
// which are the consistency model for Len/Stats:
//
//   - Lock-free reads (the Config.ReadIndex fast path) do not acquire the
//     shard lock, so fast-path counter updates (gets, hits/misses) can land
//     while the cut is held. Counters are monotonic atomics — the snapshot
//     is a valid linearization point, merely not a frozen instant for the
//     fast-read counters.
//   - Acquisition is ordered (shard 0..N-1) and read locks are shared, so
//     concurrent Len/Stats calls never deadlock and proceed in parallel.
func (s *Sharded) rlockAll() (release func()) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}
}

// Len returns the total number of indexed items across shards, counted on
// one consistent cut (see rlockAll): all shard read locks are held
// simultaneously, rather than polling shards one after another while
// earlier-counted shards keep mutating.
func (s *Sharded) Len() int {
	release := s.rlockAll()
	defer release()
	n := 0
	for i := range s.shards {
		n += s.shards[i].c.Len()
	}
	return n
}

// Snapshot captures every shard's recovery metadata for a graceful
// shutdown; the slice index is the shard index. Each shard, under its own
// lock, first seals its open region (SealOpen — a graceful shutdown, unlike
// a crash, gets to persist the DRAM buffer) and then serializes its
// metadata, so each shard's snapshot is a consistent cut of that shard,
// taken in shard order. A whole-cache warm roll wants quiescence first:
// stop the traffic, then Snapshot.
func (s *Sharded) Snapshot() ([][]byte, error) {
	out := make([][]byte, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		err := sh.c.SealOpen()
		var snap []byte
		if err == nil {
			snap, err = sh.c.Snapshot()
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("cache: shard %d snapshot: %w", i, err)
		}
		out[i] = snap
	}
	return out, nil
}

// Drain completes all in-flight flushes on every shard.
func (s *Sharded) Drain() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		sh.c.Drain()
		sh.mu.Unlock()
	}
}

// MetricsInto implements obs.MetricSource: every shard's engine registers
// its instruments with a shard label appended, so per-shard skew (hash
// imbalance, clock divergence) is visible series-by-series. Engine
// instruments are atomics/mutexed histograms, so scrapes need no shard lock.
func (s *Sharded) MetricsInto(r *obs.Registry, labels obs.Labels) {
	for i := range s.shards {
		s.shards[i].c.MetricsInto(r, labels.With("shard", strconv.Itoa(i)))
	}
}

// ShardStats snapshots shard i's engine counters under the shard read lock,
// so it is safe to call while other goroutines use the frontend.
func (s *Sharded) ShardStats(i int) Stats {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.c.Stats()
}

// FastReadStats sums the lock-free read path's counters across shards:
// gets answered without a shard lock (hits, misses) and deferred notes
// dropped on queue overflow. All zero when Config.ReadIndex is off.
func (s *Sharded) FastReadStats() (fastHits, fastMisses, noteDrops uint64) {
	for i := range s.shards {
		h, m, d := s.shards[i].c.FastReadStats()
		fastHits += h
		fastMisses += m
		noteDrops += d
	}
	return
}

// Stats merges all shards' counters into one snapshot taken on a single
// consistent cut — every shard's read lock is held simultaneously (see
// rlockAll for the exact consistency model), so no mutator lands between
// the first and last shard's snapshot. Counters sum; the latency
// distributions are merged at histogram resolution (exact — shards share
// bucket boundaries); HitRatio is recomputed from the summed hits and
// misses; SimulatedTime is the furthest shard clock, the makespan of a
// parallel replay.
func (s *Sharded) Stats() Stats {
	getH := stats.NewHistogram()
	setH := stats.NewHistogram()
	var out Stats
	release := s.rlockAll()
	defer release()
	for i := range s.shards {
		sh := &s.shards[i]
		st := sh.c.Stats()
		getH.Merge(sh.c.GetLatencyHistogram())
		setH.Merge(sh.c.SetLatencyHistogram())
		out.Gets += st.Gets
		out.Sets += st.Sets
		out.Deletes += st.Deletes
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Flushes += st.Flushes
		out.Expirations += st.Expirations
		out.CoDesignDrops += st.CoDesignDrops
		out.AdmitRejects += st.AdmitRejects
		out.HostWriteBytes += st.HostWriteBytes
		out.StoreRetries += st.StoreRetries
		out.Quarantined += st.Quarantined
		out.LostKeys += st.LostKeys
		out.RestoreDrops += st.RestoreDrops
		if st.SimulatedTime > out.SimulatedTime {
			out.SimulatedTime = st.SimulatedTime
		}
	}
	if out.Hits+out.Misses > 0 {
		out.HitRatio = float64(out.Hits) / float64(out.Hits+out.Misses)
	}
	out.GetLatency = getH.Snapshot()
	out.SetLatency = setH.Snapshot()
	return out
}
