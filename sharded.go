package znscache

import (
	"fmt"
	"sync/atomic"
	"time"

	"znscache/internal/cache"
	"znscache/internal/harness"
)

// ShardedConfig describes a sharded cache: a base Config plus the shard
// count. The simulated hardware and the cache capacity are partitioned
// across shards — each shard owns Zones/Shards zones and CacheBytes/Shards
// bytes of an independent device stack — so the total footprint matches a
// one-shard cache of the same Config while operations on different shards
// run concurrently.
type ShardedConfig struct {
	Config
	// Shards is the number of independent engines (default 4). Zones must
	// split into at least one zone per shard.
	Shards int
}

// ShardedCache is the cache: Config's capacity split across one (Open) or
// more (OpenSharded) independent engines, each with its own virtual clock,
// device stack, and mutex. All methods are safe for concurrent use. Keys are
// partitioned by hash, so a key always lands on the same shard; per-shard
// determinism is preserved (see cache.Sharded).
type ShardedCache struct {
	sh   *cache.Sharded
	rigs []*harness.Rig
	// snaps holds the per-shard recovery snapshots captured by Close.
	snaps [][]byte
	// closed is atomic because the network serving layer checks it from
	// many connection goroutines while Close runs on the shutdown path.
	closed atomic.Bool
}

// OpenSharded builds a sharded cache per cfg.
func OpenSharded(cfg ShardedConfig) (*ShardedCache, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("znscache: invalid shard count %d", cfg.Shards)
	}
	if cfg.Zones == 0 {
		cfg.Zones = 24
	}
	zonesPerShard := cfg.Zones / cfg.Shards
	if zonesPerShard < 1 {
		return nil, fmt.Errorf("znscache: %d zones cannot split across %d shards",
			cfg.Zones, cfg.Shards)
	}

	shardCfg := cfg.Config
	shardCfg.Zones = zonesPerShard
	if cfg.CacheBytes != 0 {
		shardCfg.CacheBytes = cfg.CacheBytes / int64(cfg.Shards)
	}

	rigs := make([]*harness.Rig, cfg.Shards)
	for i := range rigs {
		// Each shard's admission policy instance is built by the shared
		// factory with a shard-decorrelated seed: independent instances fix
		// the cross-shard data race, the derived seeds keep replays
		// deterministic per shard.
		shardCfg.AdmissionSeed = cache.ShardSeed(cfg.AdmissionSeed, i)
		rig, err := buildRig(shardCfg)
		if err != nil {
			return nil, fmt.Errorf("znscache: shard %d: %w", i, err)
		}
		rigs[i] = rig
	}
	return newShardedCache(rigs)
}

// newShardedCache puts the frontend over rigs, one shard per rig.
func newShardedCache(rigs []*harness.Rig) (*ShardedCache, error) {
	engines := make([]*cache.Cache, len(rigs))
	for i, rig := range rigs {
		engines[i] = rig.Engine
	}
	sh, err := cache.NewSharded(engines)
	if err != nil {
		return nil, err
	}
	return &ShardedCache{sh: sh, rigs: rigs}, nil
}

// NumShards returns the shard count.
func (c *ShardedCache) NumShards() int { return c.sh.NumShards() }

// ShardFor returns the shard index key maps to.
func (c *ShardedCache) ShardFor(key string) int { return c.sh.ShardFor(key) }

// Rig exposes shard i's scheme assembly for inspection. The returned value
// shares state with the cache and is not synchronized against concurrent
// operations.
func (c *ShardedCache) Rig(i int) *harness.Rig { return c.rigs[i] }

// ShardNow returns the current simulated time of the shard owning key — the
// clock every TTL on that shard is measured against. It satisfies the
// serving layer's ShardClocked extension so absolute memcached exptimes
// resolve on the shard clock rather than the wall clock.
func (c *ShardedCache) ShardNow(key string) time.Duration {
	return c.rigs[c.sh.ShardFor(key)].Clock.Now()
}

// Set inserts or replaces key with value.
func (c *ShardedCache) Set(key string, value []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.sh.Set(key, value, 0)
}

// SetSized inserts or replaces key with a metadata-only value of n bytes.
func (c *ShardedCache) SetSized(key string, n int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.sh.Set(key, nil, n)
}

// SetWithTTL inserts key with a time-to-live measured on the owning shard's
// simulated clock.
func (c *ShardedCache) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.sh.SetTTL(key, value, 0, ttl)
}

// Get returns the value for key. With TrackValues off, the returned slice
// is nil even on a hit.
func (c *ShardedCache) Get(key string) ([]byte, bool, error) {
	if c.closed.Load() {
		return nil, false, ErrClosed
	}
	return c.sh.Get(key)
}

// GetMulti is Get over every key in one call, results written to the
// parallel slices; it satisfies the serving layer's MultiGetter, so a
// pipelined batch's gets are accounted once per shard instead of once per
// key. On a closed cache every key reports ErrClosed.
func (c *ShardedCache) GetMulti(keys []string, vals [][]byte, hits []bool, errs []error) {
	if c.closed.Load() {
		for i := range keys {
			vals[i], hits[i], errs[i] = nil, false, ErrClosed
		}
		return
	}
	c.sh.GetMulti(keys, vals, hits, errs)
}

// Contains reports whether key is cached (TTL-expired items count as
// absent), without recency side effects.
func (c *ShardedCache) Contains(key string) bool {
	if c.closed.Load() {
		return false
	}
	return c.sh.Contains(key)
}

// Delete removes key; it reports whether the key was present.
func (c *ShardedCache) Delete(key string) bool {
	if c.closed.Load() {
		return false
	}
	return c.sh.Delete(key)
}

// Len returns the number of cached items across all shards.
func (c *ShardedCache) Len() int { return c.sh.Len() }

// ExecShard runs fn against shard i's engine under that shard's write lock,
// with the lock-free read path's deferred notes drained first. It is the
// batch-dispatch hook the serving layer uses to apply a whole group of
// mutations for one shard in a single critical section. fn must not retain
// the engine past its return; returns ErrClosed without running fn on a
// closed cache.
func (c *ShardedCache) ExecShard(i int, fn func(*cache.Cache)) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.sh.WithShard(i, fn)
	return nil
}

// Drain completes all in-flight flushes on every shard.
func (c *ShardedCache) Drain() { c.sh.Drain() }

// Stats merges all shards into one snapshot: counters sum, latency
// histograms merge exactly, and write amplification is the host-byte
// weighted mean across shards (each shard amplifies its own write stream;
// one shard reports its rig's factor as it is).
// SimulatedTime is the furthest shard clock — the makespan of a parallel
// replay.
func (c *ShardedCache) Stats() Stats {
	ms := c.sh.Stats()
	out := Stats{
		Scheme:        c.rigs[0].Scheme,
		Items:         c.sh.Len(),
		HitRatio:      ms.HitRatio,
		Hits:          ms.Hits,
		Misses:        ms.Misses,
		Sets:          ms.Sets,
		Deletes:       ms.Deletes,
		Evictions:     ms.Evictions,
		AdmitRejects:  ms.AdmitRejects,
		GetP50:        ms.GetLatency.P50,
		GetP99:        ms.GetLatency.P99,
		SimulatedTime: ms.SimulatedTime,
	}
	if len(c.rigs) == 1 {
		out.WriteAmplification = c.rigs[0].WAFactor()
		return out
	}
	var hostTotal float64
	var waSum float64
	for i, rig := range c.rigs {
		host := float64(c.sh.ShardStats(i).HostWriteBytes)
		hostTotal += host
		waSum += rig.WAFactor() * host
	}
	if hostTotal > 0 {
		out.WriteAmplification = waSum / hostTotal
	} else {
		out.WriteAmplification = 1
	}
	return out
}

// SimulatedTime returns the furthest shard clock.
func (c *ShardedCache) SimulatedTime() time.Duration {
	var max time.Duration
	for _, rig := range c.rigs {
		if t := rig.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// Close drains every shard, captures one recovery snapshot per shard, and
// marks the cache closed. This is the persistent-cache shutdown contract
// (CacheLib serializes its index and region metadata at shutdown): the
// snapshots describe everything needed to re-attach to the still-populated
// simulated devices, and Reopen performs that warm roll. Stop traffic before
// calling Close — operations racing it can land after their shard's cut and
// be forgotten by the successor (they are not corrupted, merely lost, the
// same asymmetry the crash harness verifies).
//
// Close is idempotent; only the first call snapshots.
func (c *ShardedCache) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	snaps, err := c.sh.Snapshot()
	if err != nil {
		return fmt.Errorf("znscache: close snapshot: %w", err)
	}
	c.snaps = snaps
	return nil
}

// Snapshots returns the per-shard recovery snapshots Close captured (nil
// before Close). The slices are the cache's own; treat them as read-only.
func (c *ShardedCache) Snapshots() [][]byte { return c.snaps }

// Reopen warm-rolls a closed cache: every shard's rig rebuilds its engine,
// with the configuration it was opened with, from the snapshot Close
// captured, over the same simulated device stacks, whose regions still hold
// the data — the restart a persistent cache exists to
// survive. The returned cache serves the snapshot's contents (open-region
// buffers are DRAM and are dropped, as on a real restart); the receiver
// stays closed and should be discarded.
func (c *ShardedCache) Reopen() (*ShardedCache, error) {
	if !c.closed.Load() {
		return nil, fmt.Errorf("znscache: Reopen needs a closed cache (call Close first)")
	}
	if c.snaps == nil {
		return nil, fmt.Errorf("znscache: no snapshots to reopen from (Close failed?)")
	}
	for i, rig := range c.rigs {
		if err := rig.Restore(c.snaps[i]); err != nil {
			return nil, fmt.Errorf("znscache: shard %d reopen: %w", i, err)
		}
	}
	return newShardedCache(c.rigs)
}
