// Package f2fs implements a simplified flash-friendly, log-structured
// filesystem over a ZNS device, standing in for F2FS in the paper's
// File-Cache scheme (Figure 1a).
//
// The structural properties the paper attributes to F2FS are reproduced:
//
//   - Everything is written out-of-place into append-only segments (one
//     segment per zone), through two logs: a data log and a node (metadata)
//     log. Block indexing goes through per-file node blocks, so data
//     overwrites dirty node blocks too — the "internal indexing ... not
//     designed and optimized for cache" overhead of §3.1.
//   - The filesystem needs its own over-provisioning (§3.1: "additional
//     space provisioning (e.g., 20%)") to run segment cleaning; usable file
//     capacity is reduced accordingly.
//   - Frequent overwrites of cache regions leave dead blocks behind, and a
//     segment cleaner migrates live blocks and resets zones — filesystem-
//     level write amplification (Table 1's File-Cache row).
//   - Cleaning is incremental: each host write contributes a bounded
//     quantum of migration work, so stalls stay small. This models F2FS
//     being "optimized for tail latency" (§4.2, Figure 5d) — in contrast
//     to the regular SSD's all-at-once foreground device GC.
package f2fs

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/obs"
	"znscache/internal/stats"
	"znscache/internal/zns"
)

// BlockSize is the filesystem block size, equal to the device sector.
const BlockSize = device.SectorSize

// PointersPerNode is how many data-block pointers one node block covers.
// Each data write dirties its covering node block; dirty node blocks are
// flushed at checkpoints, charging metadata write amplification.
const PointersPerNode = 1024

// Errors returned by the filesystem.
var (
	ErrBadConfig = errors.New("f2fs: invalid configuration")
	ErrNoSpace   = errors.New("f2fs: out of space")
	ErrExists    = errors.New("f2fs: file exists")
	ErrNotFound  = errors.New("f2fs: file not found")
	ErrBeyondEOF = errors.New("f2fs: access beyond file size")
	ErrUnaligned = errors.New("f2fs: offset or length not block-aligned")
)

// Config parameterizes a mount.
type Config struct {
	// OPRatio is the fraction of zones reserved for cleaning headroom
	// (default 0.20, the figure §3.1 cites for F2FS-class filesystems).
	OPRatio float64
	// CheckpointBytes triggers a node-log flush after this many host bytes
	// (default 16 MiB).
	CheckpointBytes int64
	// CleanQuantumBlocks bounds migration work charged to one host write
	// (default 64 blocks). Lower = smoother tail, slower reclaim.
	CleanQuantumBlocks int
	// VictimMaxValid rejects victims whose valid ratio exceeds this
	// (default 0.9); the cleaner prefers the emptiest segment regardless.
	VictimMaxValid float64
	// MetaLatency is the CPU cost charged per 4 KiB block of an operation
	// for the VFS path, node/index traversal, page-cache management, and
	// locking (default 25µs ≈ 160 MB/s of single-thread buffered FS I/O,
	// the measured class of real log-structured filesystems) — the
	// per-page software overhead that makes general-purpose file I/O
	// "too heavy for cache access patterns" (§3.1).
	MetaLatency time.Duration
	// MetaOverhead is the fraction of zones consumed by filesystem
	// metadata beyond the cleaning reserve (zero = none): node segments,
	// checkpoint packs, SIT/NAT — the reason the paper needed 38 zones
	// plus a 6 GiB regular block device to host a 20 GiB cache (§4.1).
	MetaOverhead float64
}

func (c *Config) fillDefaults() {
	if c.OPRatio == 0 {
		c.OPRatio = 0.20
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 16 << 20
	}
	if c.CleanQuantumBlocks == 0 {
		c.CleanQuantumBlocks = 64
	}
	if c.VictimMaxValid == 0 {
		c.VictimMaxValid = 0.9
	}
	if c.MetaLatency == 0 {
		c.MetaLatency = 25 * time.Microsecond
	}
}

// blockRef identifies the logical owner of one live device block, needed to
// relocate it during cleaning, with no pointer for the collector to scan.
// The zero value is a dead block.
type blockRef struct {
	file uint32 // File.num
	idx  uint32 // file block index, or node block index | nodeBit
}

const nodeBit = 1 << 31

// segment tracks one zone's occupancy.
type segment struct {
	zone  int
	valid int // live blocks
	used  int // blocks written (== wp in blocks once full)
}

// FS is a mounted filesystem. Safe for concurrent use.
type FS struct {
	dev zns.Zoned
	cfg Config

	mu       sync.Mutex
	files    []*File   // by file number minus one: in creation order
	segs     []segment // indexed by zone
	freeZone []int
	dataSeg  int // zone of the open data segment, -1 if none
	nodeSeg  int // zone of the open node segment, -1 if none
	// refs is the reverse map, a flat table indexed by device block (zones ×
	// blocks per zone): the owner of each live block, the zero blockRef for
	// a dead or never-written one.
	refs []blockRef

	dirtyNodes   map[nodeKey]struct{}
	ckptOrder    []nodeKey // dirtyNodes sorted for a checkpoint, reused
	sinceCkpt    int64     // host bytes since last checkpoint
	usableBlocks int64
	liveBlocks   int64 // file data blocks currently mapped

	// cleaning state: adopted victim being drained incrementally
	cleanLow   int    // the cleaner starts when free zones drop below it: half the reserve, minimum 3
	victim     int    // zone, -1 when none
	victimScan int64  // next block within victim to examine
	cleanBuf   []byte // the block being migrated; the device copies what it is handed

	// Observability.
	WA          stats.WriteAmp // host file bytes vs device bytes (data+node+cleaning)
	CleanRuns   stats.Counter
	Checkpoints stats.Counter
	CleanStalls *stats.Histogram
}

type nodeKey struct {
	file *File
	idx  int64
}

// File is an open file. All I/O is block-aligned, matching the cache's
// region I/O which is always 4 KiB-aligned.
type File struct {
	fs   *FS
	name string
	num  uint32 // 1 + its index in fs.files
	size int64
	// blocks maps file block index -> device block index (-1 = hole).
	blocks []int32
	// nodeLive maps node block index -> device block of its latest version
	// (-1 = never flushed).
	nodeLive []int32
	// lastWriteCost is the MetaLatency the latest WriteAt charged, until
	// TakeLastWriteStall takes it. Guarded by fs.mu.
	lastWriteCost time.Duration
}

// Mount formats the device and mounts a fresh filesystem over it.
func Mount(dev zns.Zoned, cfg Config) (*FS, error) {
	cfg.fillDefaults()
	if cfg.OPRatio < 0 || cfg.OPRatio >= 1 {
		return nil, fmt.Errorf("%w: OP ratio %v", ErrBadConfig, cfg.OPRatio)
	}
	n := dev.NumZones()
	blocks := int64(n) * (dev.ZoneSize() / BlockSize)
	if blocks > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d blocks; block maps address at most %d", ErrBadConfig, blocks, math.MaxInt32)
	}
	reserve := int(float64(n)*(cfg.OPRatio+cfg.MetaOverhead) + 0.5)
	if reserve < 3 {
		reserve = 3
	}
	if reserve >= n {
		return nil, fmt.Errorf("%w: %d zones cannot hold %d reserved", ErrBadConfig, n, reserve)
	}
	fs := &FS{
		dev:          dev,
		cfg:          cfg,
		segs:         make([]segment, n),
		refs:         make([]blockRef, blocks),
		dirtyNodes:   make(map[nodeKey]struct{}),
		dataSeg:      -1,
		nodeSeg:      -1,
		victim:       -1,
		cleanLow:     max(reserve/2, 3),
		cleanBuf:     make([]byte, BlockSize),
		usableBlocks: int64(n-reserve) * (dev.ZoneSize() / BlockSize),
		CleanStalls:  stats.NewHistogram(),
	}
	for z := n - 1; z >= 0; z-- {
		fs.segs[z] = segment{zone: z}
		fs.freeZone = append(fs.freeZone, z)
	}
	return fs, nil
}

// UsableBytes is the capacity available to files after the OP reserve.
func (fs *FS) UsableBytes() int64 { return fs.usableBlocks * BlockSize }

// FreeZones reports the free-zone pool size (the f2fs_free_zones gauge).
func (fs *FS) FreeZones() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.freeZone)
}

// MetricsInto implements obs.MetricSource: filesystem write amplification,
// segment-cleaning activity, checkpoint count, the incremental-cleaning stall
// distribution, and pool-health gauges.
func (fs *FS) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "f2fs")
	r.WriteAmp("f2fs_wa", "Filesystem write amplification (data+node+cleaning)", ls, &fs.WA)
	r.Counter("f2fs_clean_runs_total", "Segment-cleaner victim adoptions", ls, &fs.CleanRuns)
	r.Counter("f2fs_checkpoints_total", "Node-log checkpoints", ls, &fs.Checkpoints)
	r.Histogram("f2fs_clean_stall_seconds", "Cleaning work charged to host writes", ls, fs.CleanStalls)
	r.Gauge("f2fs_free_zones", "Zones in the free pool", ls, func() float64 {
		return float64(fs.FreeZones())
	})
	r.Gauge("f2fs_live_blocks", "File data blocks currently mapped", ls, func() float64 {
		return float64(fs.LiveBlocks())
	})
}

// Create allocates a file of fixed size (CacheLib's usage: one large
// preallocated cache file). The allocation is logical; blocks are assigned
// on first write.
func (fs *FS) Create(name string, size int64) (*File, error) {
	if size <= 0 || size%BlockSize != 0 {
		return nil, fmt.Errorf("%w: size %d", ErrUnaligned, size)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var committed int64
	for _, f := range fs.files {
		if f.name == name {
			return nil, fmt.Errorf("%w: %s", ErrExists, name)
		}
		committed += f.size
	}
	if committed+size > fs.UsableBytes() {
		return nil, fmt.Errorf("%w: %d committed + %d requested > %d usable",
			ErrNoSpace, committed, size, fs.UsableBytes())
	}
	nBlocks := size / BlockSize
	f := &File{
		fs:       fs,
		name:     name,
		num:      uint32(len(fs.files) + 1),
		size:     size,
		blocks:   make([]int32, nBlocks),
		nodeLive: make([]int32, (nBlocks+PointersPerNode-1)/PointersPerNode),
	}
	for i := range f.blocks {
		f.blocks[i] = -1
	}
	for i := range f.nodeLive {
		f.nodeLive[i] = -1
	}
	fs.files = append(fs.files, f)
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		if f.name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
}

// blockOffset converts a device block index to a byte offset.
func blockOffset(b int64) int64 { return b * BlockSize }

// takeZoneLocked pops a free zone. Caller must have ensured supply.
func (fs *FS) takeZoneLocked() int {
	n := len(fs.freeZone)
	z := fs.freeZone[n-1]
	fs.freeZone = fs.freeZone[:n-1]
	return z
}

// appendBlockLocked writes one block to the data or node log, returning the
// device block index and the flash completion time. It rolls the open
// segment when full.
func (fs *FS) appendBlockLocked(now time.Duration, data []byte, node bool) (int64, time.Duration, error) {
	segPtr := &fs.dataSeg
	if node {
		segPtr = &fs.nodeSeg
	}
	blocksPerZone := fs.dev.ZoneSize() / BlockSize
	if *segPtr == -1 || int64(fs.segs[*segPtr].used) == blocksPerZone {
		if *segPtr != -1 {
			// Segment full: finish the zone so its open slot frees up.
			if _, err := fs.dev.Finish(now, *segPtr); err != nil {
				return 0, now, err
			}
		}
		if len(fs.freeZone) == 0 {
			return 0, now, ErrNoSpace
		}
		*segPtr = fs.takeZoneLocked()
	}
	seg := &fs.segs[*segPtr]
	dst := int64(seg.zone)*blocksPerZone + int64(seg.used)
	lat, err := fs.dev.Write(now, data, BlockSize, blockOffset(dst))
	if err != nil {
		return 0, now, err
	}
	seg.used++
	seg.valid++
	fs.WA.AddMedia(BlockSize)
	return dst, now + lat, nil
}

// invalidateLocked marks a device block dead.
func (fs *FS) invalidateLocked(b int64) {
	blocksPerZone := fs.dev.ZoneSize() / BlockSize
	z := int(b / blocksPerZone)
	fs.segs[z].valid--
	fs.refs[b] = blockRef{}
}

// WriteAt writes block-aligned data. Returns the simulated latency,
// including any cleaning quantum and checkpoint flush charged to this call.
func (f *File) WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	if off%BlockSize != 0 || n%BlockSize != 0 {
		return 0, ErrUnaligned
	}
	if off < 0 || off+int64(n) > f.size {
		return 0, fmt.Errorf("%w: [%d,+%d) size %d", ErrBeyondEOF, off, n, f.size)
	}
	if data != nil && len(data) != n {
		return 0, fmt.Errorf("f2fs: data length %d != n %d", len(data), n)
	}
	fs := f.fs
	start := now
	meta := fs.cfg.MetaLatency * time.Duration(n/BlockSize)
	now += meta

	fs.mu.Lock()
	defer fs.mu.Unlock()
	f.lastWriteCost = meta

	// Contribute a cleaning quantum if reclaim is behind.
	var err error
	now, err = fs.cleanQuantumLocked(now)
	if err != nil {
		return 0, err
	}

	blocks := int64(n) / BlockSize
	firstIdx := off / BlockSize
	latest := now
	for i := int64(0); i < blocks; i++ {
		idx := firstIdx + i
		if old := f.blocks[idx]; old != -1 {
			fs.invalidateLocked(int64(old))
		} else {
			fs.liveBlocks++
		}
		var payload []byte
		if data != nil {
			payload = data[i*BlockSize : (i+1)*BlockSize]
		}
		dst, done, werr := fs.appendBlockLocked(now, payload, false)
		if werr != nil {
			return 0, werr
		}
		f.blocks[idx] = int32(dst)
		fs.refs[dst] = blockRef{file: f.num, idx: uint32(idx)}
		fs.dirtyNodes[nodeKey{file: f, idx: idx / PointersPerNode}] = struct{}{}
		if done > latest {
			latest = done
		}
	}
	fs.WA.AddHost(uint64(n))
	fs.sinceCkpt += int64(n)

	// Periodic checkpoint: flush dirty node blocks to the node log.
	if fs.sinceCkpt >= fs.cfg.CheckpointBytes {
		var cerr error
		latest, cerr = fs.checkpointLocked(latest)
		if cerr != nil {
			return 0, cerr
		}
	}
	return latest - start, nil
}

// ReadAt reads block-aligned data; holes read as zeros.
func (f *File) ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error) {
	n := len(p)
	if off%BlockSize != 0 || n%BlockSize != 0 {
		return 0, ErrUnaligned
	}
	if off < 0 || off+int64(n) > f.size {
		return 0, fmt.Errorf("%w: [%d,+%d) size %d", ErrBeyondEOF, off, n, f.size)
	}
	fs := f.fs
	start := now
	now += fs.cfg.MetaLatency * time.Duration(n/BlockSize)

	fs.mu.Lock()
	defer fs.mu.Unlock()
	latest := now
	for i := int64(0); i < int64(n)/BlockSize; i++ {
		dst := p[i*BlockSize : (i+1)*BlockSize]
		b := f.blocks[off/BlockSize+i]
		if b == -1 {
			for j := range dst {
				dst[j] = 0
			}
			continue
		}
		lat, err := fs.dev.Read(now, dst, blockOffset(int64(b)))
		if err != nil {
			return 0, fmt.Errorf("f2fs: read: %w", err)
		}
		if now+lat > latest {
			latest = now + lat
		}
	}
	return latest - start, nil
}

// Size returns the file size.
func (f *File) Size() int64 { return f.size }

// TakeLastWriteStall returns (and clears) the per-block CPU cost of the most
// recent WriteAt: VFS, page-cache copy and node updates burn the writing
// thread itself, unlike a raw device's DMA. It is the ssd's foreground-GC
// stall report under the same name, so a region store charges either one to
// its flusher.
func (f *File) TakeLastWriteStall() time.Duration {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	st := f.lastWriteCost
	f.lastWriteCost = 0
	return st
}

// checkpointLocked flushes dirty node blocks to the node log, in (file name,
// node index) order so node-log placement never depends on map iteration.
func (fs *FS) checkpointLocked(now time.Duration) (time.Duration, error) {
	latest := now
	fs.ckptOrder = fs.ckptOrder[:0]
	for k := range fs.dirtyNodes {
		fs.ckptOrder = append(fs.ckptOrder, k)
	}
	slices.SortFunc(fs.ckptOrder, func(a, b nodeKey) int {
		if c := strings.Compare(a.file.name, b.file.name); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for _, k := range fs.ckptOrder {
		if old := k.file.nodeLive[k.idx]; old != -1 {
			fs.invalidateLocked(int64(old))
		}
		dst, done, err := fs.appendBlockLocked(now, nil, true)
		if err != nil {
			return now, err
		}
		k.file.nodeLive[k.idx] = int32(dst)
		fs.refs[dst] = blockRef{file: k.file.num, idx: uint32(k.idx) | nodeBit}
		if done > latest {
			latest = done
		}
	}
	clear(fs.dirtyNodes)
	fs.sinceCkpt = 0
	fs.Checkpoints.Inc()
	return latest, nil
}

// Sync forces a checkpoint.
func (fs *FS) Sync(now time.Duration) (time.Duration, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	done, err := fs.checkpointLocked(now)
	return done - now, err
}

// cleanQuantumLocked advances segment cleaning by a bounded amount. When
// the free pool is below the watermark it adopts (or continues draining)
// the fullest-dead victim; when the pool is empty it drains synchronously
// until a zone is recovered (the rare foreground stall).
func (fs *FS) cleanQuantumLocked(now time.Duration) (time.Duration, error) {
	emergency := len(fs.freeZone) <= 1
	if fs.victim == -1 && len(fs.freeZone) >= fs.cleanLow {
		return now, nil
	}
	start := now
	for {
		if fs.victim == -1 {
			v, ok := fs.pickVictimLocked()
			if !ok {
				break
			}
			fs.victim = v
			fs.victimScan = 0
			fs.CleanRuns.Inc()
		}
		var err error
		var finished bool
		// Urgency scaling: the further below the watermark the free pool
		// falls, the more work each host write contributes, so the cleaner
		// converges instead of sliding into emergency full drains.
		urgency := fs.cleanLow - len(fs.freeZone) + 1
		if urgency < 1 {
			urgency = 1
		}
		quantum := fs.cfg.CleanQuantumBlocks * urgency
		if emergency {
			quantum = 1 << 30 // drain fully
		}
		now, finished, err = fs.drainVictimLocked(now, quantum)
		if err != nil {
			return now, err
		}
		if !finished {
			break // quantum exhausted; resume on a later write
		}
		if !emergency || len(fs.freeZone) > 1 {
			break
		}
	}
	if stall := now - start; stall > 0 {
		fs.CleanStalls.Observe(stall)
	}
	return now, nil
}

// pickVictimLocked selects the full segment with the lowest valid ratio.
// Open log segments and zones already free are excluded.
func (fs *FS) pickVictimLocked() (int, bool) {
	blocksPerZone := int(fs.dev.ZoneSize() / BlockSize)
	best, bestValid := -1, blocksPerZone+1
	for z := range fs.segs {
		s := &fs.segs[z]
		if s.used != blocksPerZone { // not full: still open or free
			continue
		}
		if z == fs.dataSeg || z == fs.nodeSeg {
			continue
		}
		if s.valid < bestValid {
			best, bestValid = z, s.valid
		}
	}
	if best == -1 {
		return -1, false
	}
	if float64(bestValid) > fs.cfg.VictimMaxValid*float64(blocksPerZone) {
		return -1, false // everything too full to be worth cleaning
	}
	return best, true
}

// drainVictimLocked migrates up to quantum live blocks out of the victim;
// when the scan completes it resets the zone and returns finished=true.
func (fs *FS) drainVictimLocked(now time.Duration, quantum int) (time.Duration, bool, error) {
	blocksPerZone := fs.dev.ZoneSize() / BlockSize
	z := fs.victim
	moved := 0
	for fs.victimScan < blocksPerZone && moved < quantum {
		b := int64(z)*blocksPerZone + fs.victimScan
		fs.victimScan++
		ref := fs.refs[b]
		if ref.file == 0 {
			continue
		}
		f, node := fs.files[ref.file-1], ref.idx&nodeBit != 0
		// Read the live block and append it to the proper log.
		buf := fs.cleanBuf
		rlat, err := fs.dev.Read(now, buf, blockOffset(b))
		if err != nil {
			return now, false, fmt.Errorf("f2fs: clean read: %w", err)
		}
		dst, done, err := fs.appendBlockLocked(now+rlat, buf, node)
		if err != nil {
			return now, false, err
		}
		fs.invalidateLocked(b)
		if node {
			f.nodeLive[ref.idx&^nodeBit] = int32(dst)
		} else {
			f.blocks[ref.idx] = int32(dst)
		}
		fs.refs[dst] = ref
		now = done
		moved++
	}
	if fs.victimScan < blocksPerZone {
		return now, false, nil
	}
	// Victim fully drained: reset and reclaim.
	rlat, err := fs.dev.Reset(now, z)
	if err != nil {
		return now, false, fmt.Errorf("f2fs: clean reset: %w", err)
	}
	now += rlat
	fs.segs[z] = segment{zone: z}
	fs.freeZone = append(fs.freeZone, z)
	fs.victim = -1
	fs.victimScan = 0
	return now, true, nil
}

// LiveBlocks reports mapped data blocks (tests).
func (fs *FS) LiveBlocks() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.liveBlocks
}
