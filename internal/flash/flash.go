// Package flash models a NAND flash array: channels, dies, blocks, and
// pages, with program/read/erase timing, per-die and per-channel queueing,
// and wear (erase-count) accounting.
//
// Both simulated devices in this repository — the regular block SSD
// (internal/ssd) and the zoned-namespace SSD (internal/zns) — are built on
// the same Array with the same geometry and timing, mirroring the paper's
// setup where the WD ZN540 (ZNS) and SN540 (regular) are "hardware
// compatible" devices differing only in interface and over-provisioning.
//
// The array is purely mechanical about time: every operation takes the
// caller's arrival time and returns its completion time, computed from
// per-die service times and per-channel transfer slots. Callers (the FTL,
// the zone manager) decide how those latencies propagate to the host.
package flash

import (
	"errors"
	"fmt"
	"time"

	"znscache/internal/sim"
	"znscache/internal/stats"
)

// PageState tracks the lifecycle of a physical page.
type PageState uint8

// Page lifecycle states. A free page has never been programmed since the
// last erase; a valid page holds live data; an invalid page holds data that
// has been superseded and awaits erase.
const (
	PageFree PageState = iota
	PageValid
	PageInvalid
)

// Geometry describes the physical layout of the array.
type Geometry struct {
	Channels      int // independent buses
	DiesPerChan   int // dies sharing one bus
	BlocksPerDie  int
	PagesPerBlock int
	PageSize      int // bytes
}

// Dies returns the total die count.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChan }

// Blocks returns the total block count.
func (g Geometry) Blocks() int { return g.Dies() * g.BlocksPerDie }

// Pages returns the total page count.
func (g Geometry) Pages() int { return g.Blocks() * g.PagesPerBlock }

// TotalBytes returns the raw capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Pages()) * int64(g.PageSize)
}

// BlockBytes returns the bytes held by one block.
func (g Geometry) BlockBytes() int64 {
	return int64(g.PagesPerBlock) * int64(g.PageSize)
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return errors.New("flash: Channels must be positive")
	case g.DiesPerChan <= 0:
		return errors.New("flash: DiesPerChan must be positive")
	case g.BlocksPerDie <= 0:
		return errors.New("flash: BlocksPerDie must be positive")
	case g.PagesPerBlock <= 0:
		return errors.New("flash: PagesPerBlock must be positive")
	case g.PageSize <= 0:
		return errors.New("flash: PageSize must be positive")
	}
	return nil
}

// Timing holds NAND operation latencies, normalized to the model's 4 KiB
// page. Real TLC programs a 16 KiB page (×4 planes) in ~400µs; per 4 KiB of
// bandwidth that is ~25–100µs. The default uses 100µs so one die sustains
// ~40 MB/s and a 16-die array ~640 MB/s — NVMe-class, keeping experiments
// latency- and software-bound like the paper's testbed rather than
// artificially bandwidth-bound.
type Timing struct {
	ReadPage   time.Duration // cell read (die busy)
	ProgPage   time.Duration // cell program (die busy)
	EraseBlock time.Duration // block erase (die busy)
	Transfer   time.Duration // one page over the channel bus
}

// DefaultTiming returns TLC-class timing normalized to 4 KiB pages.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:   50 * time.Microsecond,
		ProgPage:   100 * time.Microsecond,
		EraseBlock: 2 * time.Millisecond,
		Transfer:   8 * time.Microsecond,
	}
}

// Addr names one physical page: a global block index and page-in-block.
type Addr struct {
	Block int
	Page  int
}

// Stripe maps the linear page sequence of a block group (a zone) onto its
// blocks in chunks: ChunkPages consecutive pages land on one block before
// the mapping advances to the next, wrapping around the group. Blocks with
// consecutive indices interleave across dies (dieOf), so a write shorter
// than one chunk occupies a single die while a multi-chunk write spreads
// across up to Blocks dies — the intra-zone parallelism asymmetry real
// zoned drives show between small and large sequential writes.
//
// Because the linear sequence visits each block's pages in increasing
// order, the mapping preserves the NAND in-block program-order rule for
// any sequential (write-pointer-ordered) producer.
type Stripe struct {
	Blocks     int // blocks in the group
	ChunkPages int // consecutive pages per block before advancing
}

// Validate reports whether the stripe is usable over blocks of the given
// page count. ChunkPages must divide PagesPerBlock: otherwise the wrap from
// the group's last block back to the first would land mid-chunk and map
// pages past the end of a block.
func (s Stripe) Validate(pagesPerBlock int) error {
	switch {
	case s.Blocks <= 0:
		return errors.New("flash: stripe Blocks must be positive")
	case s.ChunkPages <= 0:
		return errors.New("flash: stripe ChunkPages must be positive")
	case s.ChunkPages > pagesPerBlock:
		return fmt.Errorf("flash: stripe ChunkPages %d exceeds PagesPerBlock %d",
			s.ChunkPages, pagesPerBlock)
	case pagesPerBlock%s.ChunkPages != 0:
		return fmt.Errorf("flash: stripe ChunkPages %d does not divide PagesPerBlock %d",
			s.ChunkPages, pagesPerBlock)
	}
	return nil
}

// Addr maps linear page index p of the group starting at firstBlock to its
// physical page.
func (s Stripe) Addr(firstBlock int, p int64) Addr {
	chunk := p / int64(s.ChunkPages)
	blockInGroup := chunk % int64(s.Blocks)
	page := (chunk/int64(s.Blocks))*int64(s.ChunkPages) + p%int64(s.ChunkPages)
	return Addr{Block: firstBlock + int(blockInGroup), Page: int(page)}
}

// String renders the address for diagnostics.
func (a Addr) String() string { return fmt.Sprintf("b%d/p%d", a.Block, a.Page) }

// Errors returned by Array operations.
var (
	ErrOutOfRange   = errors.New("flash: address out of range")
	ErrProgramOrder = errors.New("flash: pages within a block must be programmed sequentially")
	ErrProgramTwice = errors.New("flash: page already programmed since last erase")
	ErrReadFree     = errors.New("flash: reading a free (erased) page")
	ErrDataSize     = errors.New("flash: data length does not match page size")
)

// blockMeta is per-block bookkeeping.
type blockMeta struct {
	states []PageState
	// pages maps page -> payload. It is allocated on the block's first
	// payload program; a nil entry (or a nil table) is zero content.
	pages      [][]byte
	writeFront int // next programmable page (NAND in-block program order)
	eraseCount uint32
	valid      int // live page count, maintained for GC victim selection
}

// Array is a simulated NAND array. It is not safe for concurrent use and
// takes no lock of its own: the device that owns it (zns.Device, ssd.SSD)
// calls it only under that device's lock, which therefore guards the page
// tables and the die/channel ledger too. Only the Reads/Programs/Erases
// counters may be read from other goroutines while the device runs.
type Array struct {
	geo    Geometry
	timing Timing

	blocks    []blockMeta
	storeData bool
	zeroPage  []byte // what Read returns for a page without payload; never written

	dies     []sim.Busy // die-level service
	channels []sim.Busy // bus-level transfer

	// Stats visible to the harness.
	Reads    stats.Counter
	Programs stats.Counter
	Erases   stats.Counter
}

// NewArray builds an array. storeData controls whether page payloads are
// retained; without it reads return zero-filled pages while all state
// transitions, ordering rules, timing, and wear accounting remain exact.
// The simulated devices build their arrays without it and keep host bytes
// in their own device.Segments, by device offset or LBA, so a payload
// write or read is one copy rather than one per page; only the array's own
// tests and probes store payload here.
func NewArray(geo Geometry, timing Timing, storeData bool) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:       geo,
		timing:    timing,
		blocks:    make([]blockMeta, geo.Blocks()),
		dies:      make([]sim.Busy, geo.Dies()),
		channels:  make([]sim.Busy, geo.Channels),
		storeData: storeData,
		zeroPage:  make([]byte, geo.PageSize),
	}
	for i := range a.blocks {
		a.blocks[i].states = make([]PageState, geo.PagesPerBlock)
	}
	return a, nil
}

// Geometry returns the array layout.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the operation latencies.
func (a *Array) Timing() Timing { return a.timing }

// dieOf maps a block to its die; blocks are interleaved across dies so that
// consecutive block indices land on different dies (maximizing parallelism
// for striped writes).
func (a *Array) dieOf(block int) int { return block % a.geo.Dies() }

// chanOf maps a die to its channel.
func (a *Array) chanOf(die int) int { return die % a.geo.Channels }

func (a *Array) checkAddr(addr Addr) error {
	if addr.Block < 0 || addr.Block >= a.geo.Blocks() ||
		addr.Page < 0 || addr.Page >= a.geo.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	return nil
}

// occupy reserves die + channel for one operation arriving at now with die
// service time svc, and returns the completion time.
func (a *Array) occupy(now time.Duration, block int, svc time.Duration) time.Duration {
	die := a.dieOf(block)
	ch := a.chanOf(die)
	// Channel transfer happens first (command+data in), then die service.
	_, xferDone := a.channels[ch].Acquire(now, a.timing.Transfer)
	_, done := a.dies[die].Acquire(xferDone, svc)
	return done
}

// Program writes one page. data must be exactly PageSize bytes, or nil for
// a metadata-only write (allowed regardless of storeData; the page is
// recorded as valid with zero content). Pages within a block must be
// programmed in order, each exactly once between erases — the NAND rule the
// ZNS interface exposes and the FTL hides.
func (a *Array) Program(now time.Duration, addr Addr, data []byte) (time.Duration, error) {
	if err := a.checkAddr(addr); err != nil {
		return now, err
	}
	if data != nil && len(data) != a.geo.PageSize {
		return now, fmt.Errorf("%w: got %d want %d", ErrDataSize, len(data), a.geo.PageSize)
	}
	b := &a.blocks[addr.Block]
	if addr.Page != b.writeFront {
		return now, fmt.Errorf("%w: block %d next=%d got=%d", ErrProgramOrder, addr.Block, b.writeFront, addr.Page)
	}
	if b.states[addr.Page] != PageFree {
		return now, fmt.Errorf("%w: %v", ErrProgramTwice, addr)
	}
	b.states[addr.Page] = PageValid
	b.writeFront++
	b.valid++
	if a.storeData && data != nil {
		if b.pages == nil {
			b.pages = make([][]byte, a.geo.PagesPerBlock)
		}
		b.pages[addr.Page] = append([]byte(nil), data...)
	}
	a.Programs.Inc()
	return a.occupy(now, addr.Block, a.timing.ProgPage), nil
}

// Read returns the page payload (zero-filled when payloads are not stored)
// and the completion time. Reading a free page is an error: it means the
// layer above lost track of its mapping.
//
// The returned slice is the stored page itself (or the array's shared zero
// page) and is read-only: callers copy out of it and never write to it. It
// stays valid for as long as it is held — a programmed page is immutable
// and Erase only drops the array's reference to it, never reuses the buffer.
func (a *Array) Read(now time.Duration, addr Addr) (time.Duration, []byte, error) {
	if err := a.checkAddr(addr); err != nil {
		return now, nil, err
	}
	b := &a.blocks[addr.Block]
	if b.states[addr.Page] == PageFree {
		return now, nil, fmt.Errorf("%w: %v", ErrReadFree, addr)
	}
	out := a.zeroPage
	if b.pages != nil && b.pages[addr.Page] != nil {
		out = b.pages[addr.Page]
	}
	a.Reads.Inc()
	return a.occupy(now, addr.Block, a.timing.ReadPage), out, nil
}

// Invalidate marks a page dead (its logical data was overwritten or
// discarded). It is a metadata operation with no media latency.
func (a *Array) Invalidate(addr Addr) error {
	if err := a.checkAddr(addr); err != nil {
		return err
	}
	b := &a.blocks[addr.Block]
	if b.states[addr.Page] == PageValid {
		b.states[addr.Page] = PageInvalid
		b.valid--
	}
	return nil
}

// Erase wipes a block, freeing all pages and bumping its wear count.
func (a *Array) Erase(now time.Duration, block int) (time.Duration, error) {
	if block < 0 || block >= a.geo.Blocks() {
		return now, fmt.Errorf("%w: block %d", ErrOutOfRange, block)
	}
	b := &a.blocks[block]
	for i := range b.states {
		b.states[i] = PageFree
	}
	clear(b.pages)
	b.writeFront = 0
	b.valid = 0
	b.eraseCount++
	a.Erases.Inc()
	return a.occupy(now, block, a.timing.EraseBlock), nil
}

// State returns the lifecycle state of one page.
func (a *Array) State(addr Addr) (PageState, error) {
	if err := a.checkAddr(addr); err != nil {
		return PageFree, err
	}
	return a.blocks[addr.Block].states[addr.Page], nil
}

// ValidPages returns the live-page count of a block (for GC victim choice).
func (a *Array) ValidPages(block int) int { return a.blocks[block].valid }

// WriteFront returns the next programmable page index of a block.
func (a *Array) WriteFront(block int) int { return a.blocks[block].writeFront }

// EraseCount returns the wear count of a block.
func (a *Array) EraseCount(block int) uint32 { return a.blocks[block].eraseCount }

// MaxEraseCount returns the highest wear across all blocks, a proxy for the
// lifespan arguments in the paper (§1: "additional in-device data movements
// will further decrease the lifespan").
func (a *Array) MaxEraseCount() uint32 {
	var max uint32
	for i := range a.blocks {
		if a.blocks[i].eraseCount > max {
			max = a.blocks[i].eraseCount
		}
	}
	return max
}

// TotalErases returns the sum of erase counts across all blocks.
func (a *Array) TotalErases() uint64 { return a.Erases.Load() }
