package znscache

import (
	"time"

	"znscache/internal/harness"
	"znscache/internal/hdd"
	"znscache/internal/lsm"
)

// KVConfig describes an embedded LSM key-value store (the paper's RocksDB
// stand-in) backed by a simulated HDD, with one of the four cache schemes
// as its flash secondary cache (§4.2).
type KVConfig struct {
	// Scheme picks the secondary-cache design (default RegionCache).
	Scheme Scheme
	// CacheZones sizes the flash cache in zones (default 5, the paper's
	// ~5 GiB at scale). Zone size follows the Figure 5 profile (8 MiB).
	CacheZones int
	// DRAMCacheBytes is the block-cache size (default 512 KiB — the
	// paper's 32 MiB at scale).
	DRAMCacheBytes int64
	// DiskBytes is the backing disk capacity (default 64 GiB).
	DiskBytes int64
	// StoreValues keeps payloads so Get returns real bytes.
	StoreValues bool
	// DisableSecondary runs the DB with no flash cache (baseline).
	DisableSecondary bool
}

// KV is an LSM store with a flash secondary cache, sharing one virtual
// clock across the DB, the cache, and both devices.
type KV struct {
	db    *lsm.DB
	cache *ShardedCache
	sec   *harness.EngineSecondary
}

// OpenKV builds the store.
func OpenKV(cfg KVConfig) (*KV, error) {
	if cfg.CacheZones == 0 {
		cfg.CacheZones = 5
	}
	if cfg.DRAMCacheBytes == 0 {
		cfg.DRAMCacheBytes = 512 << 10
	}
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = 64 << 30
	}

	kv := &KV{}
	lcfg := lsm.Config{
		Disk:            hdd.New(hdd.Config{Capacity: cfg.DiskBytes}),
		BlockCacheBytes: cfg.DRAMCacheBytes,
		StoreValues:     cfg.StoreValues,
	}
	if !cfg.DisableSecondary {
		p := harness.DefaultFig5()
		p.FlashCacheZones = cfg.CacheZones
		rig, err := harness.BuildFig5Rig(cfg.Scheme, p, nil)
		if err != nil {
			return nil, err
		}
		if kv.cache, err = newShardedCache([]*harness.Rig{rig}); err != nil {
			return nil, err
		}
		kv.sec = &harness.EngineSecondary{Engine: rig.Engine}
		lcfg.Secondary = kv.sec
		lcfg.Clock = rig.Clock
	}
	db, err := lsm.Open(lcfg)
	if err != nil {
		return nil, err
	}
	kv.db = db
	return kv, nil
}

// Put inserts or updates a key.
func (kv *KV) Put(key string, value []byte) error {
	return kv.db.Put(key, value, 0)
}

// PutSized inserts a metadata-only value of n bytes.
func (kv *KV) PutSized(key string, n int) error {
	return kv.db.Put(key, nil, n)
}

// Get reads a key.
func (kv *KV) Get(key string) ([]byte, bool, error) {
	return kv.db.Get(key)
}

// Delete removes a key.
func (kv *KV) Delete(key string) error { return kv.db.Delete(key) }

// Flush forces the memtable to disk.
func (kv *KV) Flush() error { return kv.db.Flush() }

// Scan streams the live keys in [start, end) in order, calling fn for each
// until it returns false or the range ends. Empty end means unbounded.
func (kv *KV) Scan(start, end string, fn func(key string, value []byte) bool) error {
	it := kv.db.NewIterator(start, end)
	for it.Next() {
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

// SimulatedTime returns the shared virtual clock position.
func (kv *KV) SimulatedTime() time.Duration { return kv.db.Clock().Now() }

// KVStats summarizes the DB and its cache hierarchy.
type KVStats struct {
	SecondaryHitRatio float64
	SecondaryLookups  uint64
	BlockCacheHit     float64
	DiskReads         uint64
	GetP50, GetP99    time.Duration
	CacheStats        *Stats // nil when the secondary cache is disabled
}

// Stats snapshots the hierarchy.
func (kv *KV) Stats() KVStats {
	st := KVStats{
		SecondaryHitRatio: kv.db.SecondaryHitRatio(),
		SecondaryLookups:  kv.db.SecondaryLookups.Load(),
		BlockCacheHit:     kv.db.BlockCacheHitRatio(),
		DiskReads:         kv.db.DiskReads.Load(),
		GetP50:            kv.db.GetLat.Percentile(0.5),
		GetP99:            kv.db.GetLat.Percentile(0.99),
	}
	if kv.cache != nil {
		cs := kv.cache.Stats()
		st.CacheStats = &cs
	}
	return st
}
