// Package znscache is a simulation-backed reproduction of "Can ZNS SSDs be
// Better Storage Devices for Persistent Cache?" (Yang et al., HotStorage
// '24): a CacheLib-style log-structured flash cache that can run over four
// interchangeable backends — a regular block SSD (Block-Cache), an
// F2FS-like filesystem on a ZNS SSD (File-Cache), zones used directly as
// regions (Zone-Cache), and the paper's region→zone middle layer
// (Region-Cache).
//
// Every device is simulated (NAND array, FTL, zoned interface, filesystem,
// disk) on a deterministic virtual clock, so experiments measure simulated
// time, not wall-clock time. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured results.
//
// Quickstart:
//
//	c, err := znscache.Open(znscache.Config{
//		Scheme:     znscache.RegionCache,
//		Zones:      25,
//		CacheBytes: 320 << 20,
//	})
//	...
//	c.Set("user:42", []byte("profile-bytes"))
//	val, ok, err := c.Get("user:42")
package znscache

import (
	"errors"
	"time"

	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/obs"
)

// Scheme selects the cache backend design.
type Scheme = harness.Scheme

// The four schemes of the paper's Figure 1.
const (
	// BlockCache runs CacheLib-style regions on a regular (block) SSD.
	BlockCache = harness.BlockCache
	// FileCache runs regions in one large file on an F2FS-like filesystem
	// over a ZNS SSD.
	FileCache = harness.FileCache
	// ZoneCache maps one region to one zone: zero write amplification,
	// GC-free, full-capacity, but zone-sized regions.
	ZoneCache = harness.ZoneCache
	// RegionCache uses the paper's middle layer: flexible region size over
	// zones, with application-level GC.
	RegionCache = harness.RegionCache
)

// AdmissionFactory builds per-engine admission policy instances; see
// package cache for the available factories (AdmitAllFactory,
// ProbAdmitFactory, RejectFirstFactory, DynamicRandomFactory,
// FrequencyFactory) and ParseAdmission for the bench-flag grammar.
type AdmissionFactory = cache.AdmissionFactory

// ParseAdmission turns an admission spec string ("all", "prob:0.5",
// "reject-first", "dynamic-random", "frequency", ...) into a factory; see
// cache.ParseAdmission.
func ParseAdmission(spec string, budgetBytesPerSec float64) (AdmissionFactory, error) {
	return cache.ParseAdmission(spec, budgetBytesPerSec)
}

// Config describes the cache to open.
type Config struct {
	// Scheme picks the backend design (default RegionCache).
	Scheme Scheme
	// Zones sizes the simulated flash in 16 MiB zones (default 25).
	Zones int
	// CacheBytes is the cache capacity. For ZoneCache the value is rounded
	// down to whole zones; for the other schemes the gap between
	// CacheBytes and the device is over-provisioning (default: 80% of the
	// device).
	CacheBytes int64
	// RegionBytes is the region size for Block/File/Region schemes
	// (default 256 KiB; ZoneCache regions are zone-sized).
	RegionBytes int64
	// TrackValues stores payload bytes so Get returns real data. Off, the
	// cache tracks only metadata (sizes, latencies, hit ratios) — the mode
	// benchmarks use to keep memory flat.
	TrackValues bool
	// FastReads enables the engine's lock-free read index: Gets on a warm
	// key are answered without taking the shard lock, with the value where
	// it lies — in a region buffer or in the device's payload bytes. A
	// sealed region over a store that lends no view is read from the store
	// under the lock (see internal/cache readindex.go). Values returned by
	// Get must then be treated as read-only. Off by default so single-threaded
	// experiment replays keep the classic exact accounting; the network
	// serving layer turns it on.
	FastReads bool
	// Admission builds the engine's admission policy (nil admits
	// everything). A factory rather than an instance so OpenSharded can
	// build one independently-seeded instance per shard.
	Admission AdmissionFactory
	// AdmissionSeed seeds the admission policy instance; OpenSharded
	// decorrelates shards from it with cache.ShardSeed.
	AdmissionSeed uint64
	// Spans, when non-nil, samples wall-clock engine stage timings (fast vs
	// locked gets, set publish, region flush, store I/O) into the recorder
	// — the cache half of the serving layer's request-stage spans. Nil
	// disables sampling at the cost of one pointer test per site.
	Spans *obs.SpanRecorder
}

// Errors returned by the facade.
var (
	// ErrClosed is returned by operations on a closed cache.
	ErrClosed = errors.New("znscache: cache closed")
)

// Cache is a persistent cache instance over a simulated device stack.
// Methods are not safe for concurrent use: the simulation is driven
// single-threaded for determinism.
type Cache struct {
	rig    *harness.Rig
	closed bool
}

// Stats is a point-in-time summary of cache and device behaviour.
type Stats struct {
	// Scheme is the backend design in use.
	Scheme Scheme
	// Items currently indexed.
	Items int
	// HitRatio is hits/(hits+misses) over the cache's lifetime.
	HitRatio float64
	// Hits, Misses, Sets, Deletes, Evictions count operations.
	Hits, Misses, Sets, Deletes, Evictions uint64
	// AdmitRejects counts Sets the admission policy refused to write to
	// flash (always 0 without a Config.Admission policy).
	AdmitRejects uint64
	// WriteAmplification is the factor at the layer the paper reports:
	// device FTL for BlockCache, filesystem for FileCache, middle layer
	// for RegionCache, and identically 1 for ZoneCache.
	WriteAmplification float64
	// GetP50/GetP99 are simulated get latencies.
	GetP50, GetP99 time.Duration
	// SimulatedTime is the virtual clock position.
	SimulatedTime time.Duration
}

// Open builds a cache per cfg.
func Open(cfg Config) (*Cache, error) {
	if cfg.Zones == 0 {
		cfg.Zones = 25
	}
	hw := harness.DefaultHW(cfg.Zones)
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = int64(cfg.Zones) * hw.ZoneBytes() * 8 / 10
	}
	rc := harness.RigConfig{
		Scheme:           cfg.Scheme,
		HW:               hw,
		CacheBytes:       cfg.CacheBytes,
		RegionBytes:      cfg.RegionBytes,
		TrackValues:      cfg.TrackValues,
		ReadIndex:        cfg.FastReads,
		AdmissionFactory: cfg.Admission,
		AdmissionSeed:    cfg.AdmissionSeed,
		Spans:            cfg.Spans,
	}
	if cfg.Scheme == ZoneCache {
		rc.ZoneCount = int(cfg.CacheBytes / hw.ZoneBytes())
	}
	rig, err := harness.Build(rc)
	if err != nil {
		return nil, err
	}
	return &Cache{rig: rig}, nil
}

// Set inserts or replaces key with value.
func (c *Cache) Set(key string, value []byte) error {
	if c.closed {
		return ErrClosed
	}
	return c.rig.Engine.Set(key, value, 0)
}

// SetSized inserts or replaces key with a metadata-only value of n bytes
// (used when TrackValues is off).
func (c *Cache) SetSized(key string, n int) error {
	if c.closed {
		return ErrClosed
	}
	return c.rig.Engine.Set(key, nil, n)
}

// SetWithTTL inserts key with a time-to-live measured on the simulated
// clock; after ttl the item answers Get as a miss.
func (c *Cache) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	if c.closed {
		return ErrClosed
	}
	return c.rig.Engine.SetTTL(key, value, 0, ttl)
}

// Get returns the value for key. With TrackValues off, the returned slice
// is nil even on a hit.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	if c.closed {
		return nil, false, ErrClosed
	}
	return c.rig.Engine.Get(key)
}

// Contains reports whether key is cached, without recency side effects.
func (c *Cache) Contains(key string) bool {
	if c.closed {
		return false
	}
	return c.rig.Engine.Contains(key)
}

// Delete removes key; it reports whether the key was present.
func (c *Cache) Delete(key string) bool {
	if c.closed {
		return false
	}
	return c.rig.Engine.Delete(key)
}

// Len returns the number of cached items.
func (c *Cache) Len() int { return c.rig.Engine.Len() }

// Stats snapshots cache and device counters.
func (c *Cache) Stats() Stats {
	st := c.rig.Engine.Stats()
	return Stats{
		Scheme:             c.rig.Scheme,
		Items:              c.rig.Engine.Len(),
		HitRatio:           st.HitRatio,
		Hits:               st.Hits,
		Misses:             st.Misses,
		Sets:               st.Sets,
		Deletes:            st.Deletes,
		Evictions:          st.Evictions,
		AdmitRejects:       st.AdmitRejects,
		WriteAmplification: c.rig.WAFactor(),
		GetP50:             st.GetLatency.P50,
		GetP99:             st.GetLatency.P99,
		SimulatedTime:      st.SimulatedTime,
	}
}

// SimulatedTime returns the virtual clock position.
func (c *Cache) SimulatedTime() time.Duration { return c.rig.Clock.Now() }

// Rig exposes the underlying scheme assembly for advanced inspection
// (device stats, middle-layer counters). The returned value shares state
// with the cache.
func (c *Cache) Rig() *harness.Rig { return c.rig }

// Close marks the cache closed. The simulation holds no external
// resources; Close exists for API symmetry and use-after-close detection.
func (c *Cache) Close() error {
	c.closed = true
	return nil
}
