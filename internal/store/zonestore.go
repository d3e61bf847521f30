package store

import (
	"fmt"
	"time"

	"znscache/internal/cache"
	"znscache/internal/obs"
	"znscache/internal/stats"
	"znscache/internal/zns"
)

// ZoneStore maps one region to exactly one zone — the Zone-Cache scheme
// (Figure 1b). Region eviction becomes a zone reset: no data migration,
// zero write amplification, no GC, and no over-provisioning; the entire
// device capacity serves the cache. The price is that the region size is
// dictated by the zone size, with everything §3.2 says follows from that.
type ZoneStore struct {
	dev        zns.Zoned
	numRegions int
	scratch    []byte

	// Observability.
	RegionWrites stats.Counter
	RegionReads  stats.Counter
	Evictions    stats.Counter
}

// NewZoneStore builds the store. If numRegions is 0, every zone of the
// device becomes a region; otherwise the first numRegions zones are used
// (the paper's experiments pin the zone count, e.g. 25 zones in Figure 2).
func NewZoneStore(dev zns.Zoned, numRegions int) (*ZoneStore, error) {
	if numRegions == 0 {
		numRegions = dev.NumZones()
	}
	if numRegions <= 0 || numRegions > dev.NumZones() {
		return nil, fmt.Errorf("%w: %d regions for %d zones", ErrBadConfig, numRegions, dev.NumZones())
	}
	return &ZoneStore{dev: dev, numRegions: numRegions}, nil
}

// NumRegions implements cache.RegionStore.
func (s *ZoneStore) NumRegions() int { return s.numRegions }

// RegionSize implements cache.RegionStore: the zone size, by construction.
func (s *ZoneStore) RegionSize() int64 { return s.dev.ZoneSize() }

func (s *ZoneStore) check(id int, off int64, n int) error {
	if id < 0 || id >= s.numRegions {
		return fmt.Errorf("%w: %d", ErrRegion, id)
	}
	if off < 0 || n < 0 || off+int64(n) > s.dev.ZoneSize() {
		return fmt.Errorf("%w: [%d,+%d)", ErrBounds, off, n)
	}
	return nil
}

// WriteRegion implements cache.RegionStore: one sequential whole-zone write
// starting at the zone's (reset) write pointer. A zone whose write pointer
// is not at the start — a torn previous flush, or a rewrite that skipped
// EvictRegion — is reset first, so a failed write never wedges the region:
// the engine's retry finds a clean zone.
func (s *ZoneStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if err := s.check(id, 0, int(s.dev.ZoneSize())); err != nil {
		return 0, err
	}
	var resync time.Duration
	if info, err := s.dev.ZoneInfo(id); err == nil && info.WP != 0 {
		rlat, err := s.dev.Reset(now, id)
		if err != nil {
			return 0, err
		}
		resync = rlat
	}
	s.RegionWrites.Inc()
	lat, err := s.dev.Write(now+resync, data, int(s.dev.ZoneSize()), int64(id)*s.dev.ZoneSize())
	return resync + lat, err
}

// ReadRegion implements cache.RegionStore.
func (s *ZoneStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if err := s.check(id, off, n); err != nil {
		return 0, err
	}
	if p == nil {
		if cap(s.scratch) < n {
			s.scratch = make([]byte, n)
		}
		p = s.scratch[:n]
	}
	s.RegionReads.Inc()
	return s.dev.Read(now, p[:n], int64(id)*s.dev.ZoneSize()+off)
}

// EvictRegion implements cache.RegionStore: a zone reset. "When a region is
// evicted, the zone can be directly reset without any data migration"
// (§3.2) — the zero-WA property.
func (s *ZoneStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	if id < 0 || id >= s.numRegions {
		return 0, fmt.Errorf("%w: %d", ErrRegion, id)
	}
	s.Evictions.Inc()
	return s.dev.Reset(now, id)
}

// RegionReadableBytes implements the cache engine's recovery cross-check:
// the readable extent of a region is its zone's write pointer, so a
// snapshot whose Fill exceeds it (the zone was reset or torn after the
// snapshot was taken) is detected and truncated at Restore.
func (s *ZoneStore) RegionReadableBytes(id int) (int64, bool) {
	if id < 0 || id >= s.numRegions {
		return 0, false
	}
	info, err := s.dev.ZoneInfo(id)
	if err != nil {
		return 0, false
	}
	return info.WP, true
}

// MetricsInto implements obs.MetricSource.
func (s *ZoneStore) MetricsInto(r *obs.Registry, labels obs.Labels) {
	registerStoreMetrics(r, labels.With("layer", "store").With("store", "zone"),
		&s.RegionWrites, &s.RegionReads, &s.Evictions)
}

var _ cache.RegionStore = (*ZoneStore)(nil)
