// Package ssd simulates a regular (block-interface) SSD: a page-mapped FTL
// over a NAND array, with over-provisioning, greedy garbage collection, and
// device-level write-amplification accounting.
//
// This is the paper's baseline device (Block-Cache runs on it). Two of its
// modelled behaviours carry the paper's Figures 2 and 5:
//
//   - Write amplification: random small overwrites at high utilization force
//     the FTL to migrate live pages before erasing blocks, so media writes
//     exceed host writes (WAF > 1), burning lifespan and bandwidth.
//   - Uncontrollable GC: collection runs inside the device, in the
//     foreground of whichever host write trips the free-block watermark.
//     That write absorbs the whole migrate+erase cost — the high P99 the
//     paper measures for Block-Cache (Figure 5d).
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/obs"
	"znscache/internal/stats"
)

// Config parameterizes the simulated SSD.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// OPRatio is the fraction of raw capacity hidden from the host for GC
	// headroom. Regular SSDs ship with 7–28% (paper §2.2); 0.07 default.
	OPRatio float64
	// StoreData retains payloads for read-back (tests, examples), in a
	// segment store addressed by LBA; without it reads return zeros.
	StoreData bool
}

// Errors specific to the SSD model.
var (
	ErrBadConfig = errors.New("ssd: invalid configuration")
	// errBadMapping means l2p and p2l disagree about a mapped sector: the
	// payload is kept by LBA, so a wrong l2p entry would otherwise go
	// unnoticed.
	errBadMapping = errors.New("ssd: l2p and p2l disagree")
)

const unmapped = int64(-1)

// SSD is a simulated regular SSD. It is safe for concurrent use: mu is the
// one lock of the device, guarding the FTL tables, the payload segments and
// the flash array (page tables and die/channel ledger), none of which lock
// on their own.
type SSD struct {
	cfg   Config
	array *flash.Array     // page state, timing and wear; holds no payload
	data  *device.Segments // payload by LBA; nil without StoreData

	mu       sync.Mutex
	l2p      []int64 // logical page -> physical page (block*ppb+page)
	p2l      []int64 // physical page -> logical page
	openBlks []int   // one open block per die for host/GC writes
	openNext int     // round-robin cursor over openBlks
	allocRun int     // consecutive allocations on the current open block
	freeBlks []int
	// chunkPages is how many consecutive page allocations stay on one open
	// block (one die) before rotating to the next — the FTL-side twin of
	// the ZNS zone stripe chunk, so both devices show the same die-level
	// asymmetry: sub-chunk I/O serializes on one die, long runs spread. It
	// is 2 (the model's 4 KiB pages make that one real multi-plane NAND
	// page), clamped to PagesPerBlock.
	chunkPages int
	// GC starts when free blocks fall below gcLow, min(dies/2+2,
	// blocks/16+2), and refills the pool to gcHigh, gcLow+4.
	gcLow, gcHigh int
	// reserveBlks is a dedicated pool only GC migrations may draw from; it
	// guarantees collection can always complete one victim even when the
	// general free pool is exhausted (the classic FTL GC reserve).
	reserveBlks   []int
	reserveTarget int
	inGC          bool
	fullBlks      map[int]struct{}
	exported      int64 // host-visible bytes

	// Observability.
	WA       stats.WriteAmp
	GCRuns   stats.Counter
	GCStalls *stats.Histogram // latency absorbed by host writes due to GC

	lastWriteStall time.Duration // GC stall charged to the latest WriteAt
}

// New builds the SSD and formats it empty.
func New(cfg Config) (*SSD, error) {
	if cfg.OPRatio == 0 {
		cfg.OPRatio = 0.07
	}
	if cfg.Geometry.PageSize != device.SectorSize {
		return nil, fmt.Errorf("%w: flash page size %d must equal sector size %d",
			ErrBadConfig, cfg.Geometry.PageSize, device.SectorSize)
	}
	if cfg.OPRatio < 0 || cfg.OPRatio >= 1 {
		return nil, fmt.Errorf("%w: OP ratio %v", ErrBadConfig, cfg.OPRatio)
	}
	arr, err := flash.NewArray(cfg.Geometry, cfg.Timing, false)
	if err != nil {
		return nil, err
	}
	geo := cfg.Geometry
	totalPages := geo.Pages()
	exportedPages := int64(float64(totalPages) * (1 - cfg.OPRatio))
	// The FTL needs working blocks beyond the exported space: the open
	// blocks, the GC reserve, and the GC watermark. Refuse geometries with
	// no headroom.
	// Open blocks stripe host writes across dies, but small devices cannot
	// afford one per die without eating their own OP.
	openBlocks := geo.Dies()
	if max := geo.Blocks() / 16; openBlocks > max {
		openBlocks = max
	}
	if openBlocks < 1 {
		openBlocks = 1
	}
	reserveTarget := openBlocks + 2
	gcLow := min(geo.Dies()/2+2, geo.Blocks()/16+2)
	gcHigh := gcLow + 4
	minSlack := int64(openBlocks+reserveTarget+gcHigh) * int64(geo.PagesPerBlock)
	if int64(totalPages)-exportedPages < minSlack {
		exportedPages = int64(totalPages) - minSlack
	}
	if exportedPages <= 0 {
		return nil, fmt.Errorf("%w: geometry too small for OP + GC reserve", ErrBadConfig)
	}

	s := &SSD{
		cfg:        cfg,
		array:      arr,
		l2p:        make([]int64, exportedPages),
		p2l:        make([]int64, totalPages),
		fullBlks:   make(map[int]struct{}),
		exported:   exportedPages * int64(geo.PageSize),
		chunkPages: min(2, geo.PagesPerBlock),
		gcLow:      gcLow,
		gcHigh:     gcHigh,
		GCStalls:   stats.NewHistogram(),
	}
	if cfg.StoreData {
		s.data = device.NewSegments(s.exported, 0)
	}
	for i := range s.l2p {
		s.l2p[i] = unmapped
	}
	for i := range s.p2l {
		s.p2l[i] = unmapped
	}
	for b := geo.Blocks() - 1; b >= 0; b-- {
		s.freeBlks = append(s.freeBlks, b)
	}
	s.reserveTarget = reserveTarget
	// Open blocks for host/GC writes; consecutive blocks interleave across
	// dies, so openBlocks-wide striping spreads over distinct dies.
	for d := 0; d < openBlocks; d++ {
		s.openBlks = append(s.openBlks, s.takeFreeLocked())
	}
	for r := 0; r < reserveTarget; r++ {
		s.reserveBlks = append(s.reserveBlks, s.takeFreeLocked())
	}
	return s, nil
}

// Size returns host-visible capacity.
func (s *SSD) Size() int64 { return s.exported }

// Array exposes the underlying NAND for wear inspection by the harness. The
// array is guarded by s.mu, so while other goroutines use the SSD only its
// counters may be read.
func (s *SSD) Array() *flash.Array { return s.array }

// takeFreeLocked pops a free block; caller holds mu and has ensured supply.
func (s *SSD) takeFreeLocked() int {
	n := len(s.freeBlks)
	b := s.freeBlks[n-1]
	s.freeBlks = s.freeBlks[:n-1]
	return b
}

// allocPageLocked returns the physical page to program next, rotating over
// the per-die open blocks in chunks of chunkPages so consecutive
// writes share a die until the chunk fills. Caller holds mu and has ensured
// free supply.
func (s *SSD) allocPageLocked() flash.Addr {
	for {
		blk := s.openBlks[s.openNext]
		front := s.array.WriteFront(blk)
		if front < s.cfg.Geometry.PagesPerBlock {
			s.allocRun++
			if s.allocRun >= s.chunkPages {
				s.allocRun = 0
				s.openNext = (s.openNext + 1) % len(s.openBlks)
			}
			return flash.Addr{Block: blk, Page: front}
		}
		s.allocRun = 0
		// Block filled: retire it and open a fresh one in its slot. GC
		// migrations may dip into the reserve; host writes never do (the
		// watermark check keeps the general pool stocked for them).
		s.fullBlks[blk] = struct{}{}
		var next int
		switch {
		case len(s.freeBlks) > 0:
			next = s.takeFreeLocked()
		case s.inGC && len(s.reserveBlks) > 0:
			next = s.reserveBlks[len(s.reserveBlks)-1]
			s.reserveBlks = s.reserveBlks[:len(s.reserveBlks)-1]
		default:
			panic("ssd: free and reserve pools exhausted — OP sizing violated")
		}
		s.openBlks[s.openNext] = next
	}
}

func (s *SSD) ppn(a flash.Addr) int64 {
	return int64(a.Block)*int64(s.cfg.Geometry.PagesPerBlock) + int64(a.Page)
}

func (s *SSD) addrOf(ppn int64) flash.Addr {
	ppb := int64(s.cfg.Geometry.PagesPerBlock)
	return flash.Addr{Block: int(ppn / ppb), Page: int(ppn % ppb)}
}

// WriteAt implements device.BlockDevice. Each sector is written
// out-of-place: the old physical page (if any) is invalidated and a fresh
// page programmed. If the free-block pool is below the watermark, garbage
// collection runs first and its full latency is charged to this write. The
// payload (zeros, for nil data) is then copied in by LBA in one pass, before
// WriteAt returns.
func (s *SSD) WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	if err := device.CheckRange(off, n, s.exported); err != nil {
		return 0, err
	}
	if data != nil && len(data) != n {
		return 0, fmt.Errorf("ssd: data length %d != n %d", len(data), n)
	}
	sectors := n / device.SectorSize
	if sectors == 0 {
		return 0, nil
	}
	start := now
	var latest time.Duration

	s.mu.Lock()
	s.lastWriteStall = 0
	lpnBase := off / device.SectorSize
	for i := 0; i < sectors; i++ {
		// Foreground GC: the "uncontrollable" collection any host write
		// can trip. Checked per sector so long writes cannot outrun the
		// watermark.
		if gcDone, ran := s.collectLocked(now); ran {
			stall := gcDone - now
			s.GCStalls.Observe(stall)
			s.lastWriteStall += stall
			now = gcDone
			if gcDone > latest {
				latest = gcDone
			}
		}
		lpn := lpnBase + int64(i)
		if old := s.l2p[lpn]; old != unmapped {
			s.array.Invalidate(s.addrOf(old))
			s.p2l[old] = unmapped
		}
		addr := s.allocPageLocked()
		done, err := s.array.Program(now, addr, nil)
		if err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("ssd: program: %w", err)
		}
		p := s.ppn(addr)
		s.l2p[lpn] = p
		s.p2l[p] = lpn
		if done > latest {
			latest = done
		}
	}
	if data != nil {
		s.data.Write(off, data)
	} else {
		s.data.Zero(off, int64(n))
	}
	s.mu.Unlock()

	s.WA.AddHost(uint64(n))
	s.WA.AddMedia(uint64(n))
	if latest < now {
		latest = now
	}
	return latest - start, nil
}

// ReadAt implements device.BlockDevice. Reading an unwritten sector fills
// zeros (fresh-device semantics) rather than erroring, matching real block
// devices. The payload comes out in one copy by LBA; each mapped sector's
// page is read from the flash array for its die/channel time and state
// check, and must map back to its LBA.
func (s *SSD) ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error) {
	n := len(p)
	if err := device.CheckRange(off, n, s.exported); err != nil {
		return 0, err
	}
	sectors := n / device.SectorSize
	start := now
	var latest time.Duration = now

	s.mu.Lock()
	s.data.Read(p, off)
	lpnBase := off / device.SectorSize
	for i := 0; i < sectors; i++ {
		lpn := lpnBase + int64(i)
		ppn := s.l2p[lpn]
		if ppn == unmapped {
			// An unmapped sector reads as zeros whatever its segment
			// holds: bytes past the write that took a segment from the
			// pool are stale.
			clear(p[i*device.SectorSize : (i+1)*device.SectorSize])
			continue
		}
		if back := s.p2l[ppn]; back != lpn {
			s.mu.Unlock()
			return 0, fmt.Errorf("ssd: read: lpn %d maps to ppn %d, which maps back to lpn %d: %w",
				lpn, ppn, back, errBadMapping)
		}
		done, _, err := s.array.Read(now, s.addrOf(ppn))
		if err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("ssd: read: %w", err)
		}
		if done > latest {
			latest = done
		}
	}
	s.mu.Unlock()
	return latest - start, nil
}

// collectLocked runs greedy GC until the free pool reaches the high
// watermark. Returns the completion time and whether any work happened.
func (s *SSD) collectLocked(now time.Duration) (time.Duration, bool) {
	if len(s.freeBlks) >= s.gcLow {
		return now, false
	}
	s.GCRuns.Inc()
	s.inGC = true
	cur := now
	for len(s.freeBlks) < s.gcHigh {
		victim, ok := s.pickVictimLocked()
		if !ok {
			break // nothing collectable; device is pathologically full
		}
		delete(s.fullBlks, victim)
		cur = s.migrateAndEraseLocked(cur, victim)
		// Erased capacity refills the GC reserve before the general pool.
		if len(s.reserveBlks) < s.reserveTarget {
			s.reserveBlks = append(s.reserveBlks, victim)
		} else {
			s.freeBlks = append(s.freeBlks, victim)
		}
	}
	s.inGC = false
	return cur, true
}

// pickVictimLocked chooses the full block with the fewest valid pages
// (greedy policy), skipping open blocks.
func (s *SSD) pickVictimLocked() (int, bool) {
	// Ties break toward the lowest block index: map iteration order is
	// random per run, and letting it pick among equal-valid victims makes
	// GC latencies (and thus simulated throughput) drift across runs.
	best, bestValid := -1, 1<<31
	for b := range s.fullBlks {
		if v := s.array.ValidPages(b); v < bestValid || (v == bestValid && b < best) {
			best, bestValid = b, v
		}
	}
	return best, best >= 0
}

// migrateAndEraseLocked relocates the victim's live pages and erases it.
// Migrated bytes count as media (not host) writes — the WA source. Reads
// serialize on the victim's die; the rewrites fan out across the open
// blocks' dies in parallel, as a real FTL's copy path does. No payload moves:
// it is kept by LBA, which migration does not change.
func (s *SSD) migrateAndEraseLocked(now time.Duration, victim int) time.Duration {
	geo := s.cfg.Geometry
	base := int64(victim) * int64(geo.PagesPerBlock)
	latest := now
	for p := 0; p < geo.PagesPerBlock; p++ {
		oldPPN := base + int64(p)
		lpn := s.p2l[oldPPN]
		if lpn == unmapped {
			continue
		}
		addr := flash.Addr{Block: victim, Page: p}
		rDone, _, err := s.array.Read(now, addr)
		if err != nil {
			panic(fmt.Sprintf("ssd: GC read of live page failed: %v", err))
		}
		dst := s.allocPageLocked()
		wDone, err := s.array.Program(rDone, dst, nil)
		if err != nil {
			panic(fmt.Sprintf("ssd: GC program failed: %v", err))
		}
		s.array.Invalidate(addr)
		newPPN := s.ppn(dst)
		s.l2p[lpn] = newPPN
		s.p2l[newPPN] = lpn
		s.p2l[oldPPN] = unmapped
		s.WA.AddMedia(uint64(geo.PageSize))
		if wDone > latest {
			latest = wDone
		}
	}
	eDone, err := s.array.Erase(latest, victim)
	if err != nil {
		panic(fmt.Sprintf("ssd: GC erase failed: %v", err))
	}
	return eDone
}

// TakeLastWriteStall returns (and clears) the GC stall absorbed by the most
// recent WriteAt. The write syscall blocks the caller for this long — the
// foreground-GC tail the paper attributes to regular SSDs (§4.2).
func (s *SSD) TakeLastWriteStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lastWriteStall
	s.lastWriteStall = 0
	return st
}

// FreeBlocks reports the current free-block pool size (for tests).
func (s *SSD) FreeBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.freeBlks)
}

// MetricsInto implements obs.MetricSource: the FTL's write amplification,
// GC run count, free-block gauge, and the GC-stall latency distribution that
// carries the paper's Block-Cache tail-latency story.
func (s *SSD) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "ssd")
	r.WriteAmp("ssd_wa", "FTL write amplification", ls, &s.WA)
	r.Counter("ssd_gc_runs_total", "Device GC collection passes", ls, &s.GCRuns)
	r.Histogram("ssd_gc_stall_seconds", "GC stall absorbed by host writes", ls, s.GCStalls)
	r.Gauge("ssd_free_blocks", "Blocks in the FTL free pool", ls, func() float64 {
		return float64(s.FreeBlocks())
	})
}

// MappedSectors reports how many logical sectors currently hold data.
func (s *SSD) MappedSectors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c int64
	for _, p := range s.l2p {
		if p != unmapped {
			c++
		}
	}
	return c
}

var _ device.BlockDevice = (*SSD)(nil)
