// Package store provides the region stores for three of the paper's four
// schemes: BlockStore serves Block-Cache (regions at fixed offsets on a
// regular SSD) and File-Cache (regions at fixed offsets of one large file on
// the F2FS-like filesystem), and ZoneStore serves Zone-Cache (one region per
// zone on a ZNS device). The fourth scheme, Region-Cache, lives in
// internal/middle because it is the paper's main artifact.
package store

import (
	"errors"
	"fmt"
	"time"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/obs"
	"znscache/internal/stats"
)

// Errors shared by the stores.
var (
	ErrBadConfig = errors.New("store: invalid configuration")
	ErrRegion    = errors.New("store: region index out of range")
	ErrBounds    = errors.New("store: read beyond region")
)

// BlockStore maps region i to byte range [i*regionSize, (i+1)*regionSize) of
// a block device: a raw regular SSD's LBAs, exactly how CacheLib uses one,
// or one large preallocated file (Figure 1a), where every region I/O goes
// through file indexing. Eviction is a no-op at the device: the region's
// range is simply overwritten by the next flush, and only then does the FTL,
// or the filesystem's out-of-place update, learn the old blocks are dead.
// The FTL's GC or the segment cleaner pays for that opacity (device-level
// WA, tail stalls).
type BlockStore struct {
	dev        device.BlockDevice
	label      string // the store label of its metrics
	regionSize int64
	numRegions int
	scratch    []byte

	// Observability.
	RegionWrites stats.Counter
	RegionReads  stats.Counter
	Evictions    stats.Counter
}

// NewBlockStore builds a store over dev whose metrics carry store=label. If
// numRegions is 0, the device capacity is divided fully into regions.
func NewBlockStore(dev device.BlockDevice, label string, regionSize int64, numRegions int) (*BlockStore, error) {
	if regionSize <= 0 || regionSize%device.SectorSize != 0 {
		return nil, fmt.Errorf("%w: region size %d", ErrBadConfig, regionSize)
	}
	max := int(dev.Size() / regionSize)
	if numRegions == 0 {
		numRegions = max
	}
	if numRegions <= 0 || numRegions > max {
		return nil, fmt.Errorf("%w: %d regions of %d bytes exceed device %d",
			ErrBadConfig, numRegions, regionSize, dev.Size())
	}
	return &BlockStore{dev: dev, label: label, regionSize: regionSize, numRegions: numRegions}, nil
}

// NumRegions implements cache.RegionStore.
func (s *BlockStore) NumRegions() int { return s.numRegions }

// RegionSize implements cache.RegionStore.
func (s *BlockStore) RegionSize() int64 { return s.regionSize }

func (s *BlockStore) check(id int, off int64, n int) error {
	if id < 0 || id >= s.numRegions {
		return fmt.Errorf("%w: %d", ErrRegion, id)
	}
	if off < 0 || n < 0 || off+int64(n) > s.regionSize {
		return fmt.Errorf("%w: [%d,+%d)", ErrBounds, off, n)
	}
	return nil
}

// WriteRegion implements cache.RegionStore.
func (s *BlockStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if err := s.check(id, 0, int(s.regionSize)); err != nil {
		return 0, err
	}
	s.RegionWrites.Inc()
	return s.dev.WriteAt(now, data, int(s.regionSize), int64(id)*s.regionSize)
}

// ReadRegion implements cache.RegionStore.
func (s *BlockStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
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
	return s.dev.ReadAt(now, p[:n], int64(id)*s.regionSize+off)
}

// EvictRegion implements cache.RegionStore. No device action: the range is
// reused in place by the next WriteRegion, mirroring CacheLib on raw block
// devices and on its cache file.
func (s *BlockStore) EvictRegion(time.Duration, int) (time.Duration, error) {
	s.Evictions.Inc()
	return 0, nil
}

// RegionReadableBytes implements the cache engine's recovery cross-check.
// Regions are fixed ranges of a device or a preallocated file: every byte is
// always readable (a torn flush leaves a new-prefix/old-suffix mix, which the
// engine's per-item checksum rejects at read time), so the full region is
// reported.
func (s *BlockStore) RegionReadableBytes(id int) (int64, bool) {
	if id < 0 || id >= s.numRegions {
		return 0, false
	}
	return s.regionSize, true
}

// MetricsInto implements obs.MetricSource.
func (s *BlockStore) MetricsInto(r *obs.Registry, labels obs.Labels) {
	registerStoreMetrics(r, labels.With("layer", "store").With("store", s.label),
		&s.RegionWrites, &s.RegionReads, &s.Evictions)
}

// registerStoreMetrics registers the counter trio every region store keeps,
// so the block, file and zone stores expose identical series distinguished
// by the store label.
func registerStoreMetrics(r *obs.Registry, ls obs.Labels, writes, reads, evicts *stats.Counter) {
	r.Counter("store_region_writes_total", "Whole-region flushes accepted by the store", ls, writes)
	r.Counter("store_region_reads_total", "Region read requests served by the store", ls, reads)
	r.Counter("store_region_evictions_total", "Region evictions signalled to the store", ls, evicts)
}

// stallReporter is implemented by devices whose writes can block the caller
// beyond the media time: the regular SSD's foreground GC, a file's per-block
// CPU.
type stallReporter interface {
	TakeLastWriteStall() time.Duration
}

// WriteSyncCost implements cache.SyncCoster: the write syscall holds the
// flusher for as long as the device stalled the write — the "uncontrollable
// GC" path of the paper's Block-Cache, the filesystem CPU of its
// File-Cache.
func (s *BlockStore) WriteSyncCost() time.Duration {
	if sr, ok := s.dev.(stallReporter); ok {
		return sr.TakeLastWriteStall()
	}
	return 0
}

var _ cache.RegionStore = (*BlockStore)(nil)
var _ cache.SyncCoster = (*BlockStore)(nil)
