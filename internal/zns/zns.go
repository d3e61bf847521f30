// Package zns simulates a Zoned Namespace SSD: the NAND array is exposed as
// zones that must be written sequentially at a per-zone write pointer, can
// be read randomly, and are reclaimed wholesale via reset.
//
// The device performs no internal garbage collection and hides almost no
// over-provisioning — the two properties the paper builds on: reclaim
// policy (and therefore write amplification) moves up to the application,
// and the same hardware exports more usable capacity than a regular SSD
// (§2.2: 7–28% more). The zone/flash mapping stripes each zone across the
// array's dies in chunks, so large sequential zone writes enjoy full
// parallelism while sub-chunk writes serialize on a single die.
//
// Beyond the written contract, the device models the zone-resource limits
// the ZNS characterization literature calls the unwritten contracts:
//
//   - An open-zone cap (ZN540: 14) bounds zones accepting writes.
//   - A distinct active-zone budget bounds zones holding device resources:
//     open zones plus closed-but-unfinished zones. Only finishing or
//     resetting a zone returns its active slot; exceeding the budget fails
//     with ErrTooManyActive.
package zns

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// ZoneState is the condition of one zone, following the ZNS spec's state
// machine (reduced to the states the cache schemes exercise).
type ZoneState uint8

// Zone states.
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneClosed
	ZoneFull
)

// String names the state for diagnostics and zonectl.
func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "EMPTY"
	case ZoneOpen:
		return "OPEN"
	case ZoneClosed:
		return "CLOSED"
	case ZoneFull:
		return "FULL"
	default:
		return fmt.Sprintf("ZoneState(%d)", uint8(s))
	}
}

// Errors returned by zone operations.
var (
	ErrBadConfig       = errors.New("zns: invalid configuration")
	ErrNotWritePointer = errors.New("zns: write not at the zone write pointer")
	ErrZoneFull        = errors.New("zns: zone is full")
	ErrReadBeyondWP    = errors.New("zns: read beyond write pointer")
	ErrTooManyOpen     = errors.New("zns: maximum open zones exceeded")
	ErrTooManyActive   = errors.New("zns: maximum active zones exceeded")
	ErrZoneRange       = errors.New("zns: zone index out of range")
	ErrCrossZone       = errors.New("zns: I/O crosses a zone boundary")
)

// Config parameterizes the device.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// BlocksPerZone sets the zone size (BlocksPerZone × block bytes). The
	// paper's ZN540 has 1077 MiB zones; small-zone devices (Samsung's
	// 96 MiB, §3.2) are modelled by shrinking this.
	BlocksPerZone int
	// MaxOpenZones caps concurrently writable zones (ZN540: 14).
	MaxOpenZones int
	// MaxActiveZones caps zones holding device resources: open zones plus
	// closed-but-unfinished zones. Zero defaults it to MaxOpenZones. Since
	// every open zone is active, a value below MaxOpenZones is rejected at
	// New with ErrBadConfig.
	MaxActiveZones int
	// ZoneStripeLanes caps the write parallelism available to any single
	// zone (default 4, clamped to BlocksPerZone). Real zoned drives expose
	// a per-zone write bandwidth well below the device aggregate; saturating
	// the device requires writing several zones concurrently. This is why
	// the paper's middle layer "supports concurrent writing of multiple
	// zones" (§3.3) and why one-zone-at-a-time Zone-Cache flushes lag.
	ZoneStripeLanes int
	// StoreData retains payloads for read-back, in a segment store
	// addressed by device offset; without it reads return zeros.
	StoreData bool
}

// Zone is a snapshot of one zone's state for introspection.
type Zone struct {
	Index int
	State ZoneState
	// Start is the device offset of the zone's first byte.
	Start int64
	// WP is the write pointer as an offset from Start.
	WP int64
	// Resets counts lifecycle cycles (wear proxy at zone granularity).
	Resets uint64
}

// Zoned is the zone-op interface the upper layers (the F2FS model, the
// Zone-Cache store, and the Region-Cache middle layer) program against.
// *Device implements it directly; internal/fault wraps it to inject
// errors, latency spikes, torn writes, and crash points underneath every
// consumer without any of them knowing.
type Zoned interface {
	// NumZones returns the zone count.
	NumZones() int
	// ZoneSize returns the usable bytes per zone.
	ZoneSize() int64
	// Size returns total usable capacity in bytes.
	Size() int64
	// MaxOpenZones returns the open-zone cap.
	MaxOpenZones() int
	// OpenZones returns the number of zones currently open.
	OpenZones() int
	// MaxActiveZones returns the active-zone budget (open + closed).
	MaxActiveZones() int
	// ActiveZones returns the number of zones currently holding an active
	// slot (open or closed).
	ActiveZones() int
	// ZoneInfo returns a snapshot of zone z.
	ZoneInfo(z int) (Zone, error)
	// Write appends n bytes at offset off (must equal the zone's write
	// pointer). data may be nil for a metadata-only write.
	Write(now time.Duration, data []byte, n int, off int64) (time.Duration, error)
	// Read reads len(p) bytes at off; must not cross the write pointer.
	Read(now time.Duration, p []byte, off int64) (time.Duration, error)
	// View returns the n written bytes at off in place, read-only and
	// unchanging for as long as the caller holds them, or ok=false when the
	// device cannot lend them (no payload store, or not in one segment).
	// It is free on the device clock: callers that serve from it model a
	// DRAM copy, not a flash read.
	View(off int64, n int) (p []byte, ok bool)
	// DropPayload tells the device that nothing reads the n bytes at off
	// again, so it may forget its host copy of them. Reads of the range are
	// undefined afterwards; views already lent keep their bytes. It changes
	// no zone state, write pointer or flash page and is free on the device
	// clock: the flash behind the range comes back when its zone is reset.
	DropPayload(off, n int64)
	// Reset erases zone z.
	Reset(now time.Duration, z int) (time.Duration, error)
	// Finish moves zone z's write pointer to the end (state full).
	Finish(now time.Duration, z int) (time.Duration, error)
	// Close transitions an open zone to closed.
	Close(z int) error
}

// Device is a simulated ZNS SSD. Safe for concurrent use: mu is the one
// lock of the device, guarding the zone table, the stripe lanes, the payload
// segments and the flash array (page tables and die/channel ledger), none of
// which lock on their own.
type Device struct {
	cfg      Config
	array    *flash.Array     // page state, timing and wear; holds no payload
	data     *device.Segments // payload by device offset; nil without StoreData
	zoneSize int64
	numZones int
	stripe   flash.Stripe

	mu     sync.Mutex
	state  []ZoneState
	wp     []int64 // sectors written, per zone
	reset  []uint64
	open   int
	active int
	lanes  [][]sim.Busy // per-zone write-bandwidth lanes
	// dropped is the payload bytes DropPayload released.
	dropped int64

	// Observability. The device never writes on its own behalf (finishing a
	// partial zone fills the tail, but only when the caller asks), so its WA
	// factor is 1 in every normal-path run — asserted in tests, relied on by
	// Table 1.
	HostWrites stats.Counter // bytes
	Resets     stats.Counter
	Finishes   stats.Counter
	// FinishFill counts pages programmed to fill unwritten tails at finish —
	// the zone-finish cost of partially written zones.
	FinishFill stats.Counter
	// Trace receives zone lifecycle events; nil disables tracing.
	Trace *obs.Tracer
}

// New builds the device with every zone empty.
func New(cfg Config) (*Device, error) {
	if cfg.Geometry.PageSize != device.SectorSize {
		return nil, fmt.Errorf("%w: flash page size %d must equal sector size %d",
			ErrBadConfig, cfg.Geometry.PageSize, device.SectorSize)
	}
	if cfg.BlocksPerZone <= 0 {
		return nil, fmt.Errorf("%w: BlocksPerZone must be positive", ErrBadConfig)
	}
	if cfg.Geometry.Blocks()%cfg.BlocksPerZone != 0 {
		return nil, fmt.Errorf("%w: %d blocks not divisible into zones of %d",
			ErrBadConfig, cfg.Geometry.Blocks(), cfg.BlocksPerZone)
	}
	if cfg.MaxOpenZones <= 0 {
		cfg.MaxOpenZones = 14 // ZN540 default
	}
	if cfg.MaxActiveZones == 0 {
		// Every open zone holds an active slot, so the open cap is the
		// natural floor for the active budget.
		cfg.MaxActiveZones = cfg.MaxOpenZones
	}
	if cfg.MaxActiveZones < cfg.MaxOpenZones {
		return nil, fmt.Errorf("%w: MaxActiveZones %d < MaxOpenZones %d "+
			"(open zones are active, so the active budget cannot be below the open cap)",
			ErrBadConfig, cfg.MaxActiveZones, cfg.MaxOpenZones)
	}
	if cfg.ZoneStripeLanes <= 0 {
		cfg.ZoneStripeLanes = 4
	}
	if cfg.ZoneStripeLanes > cfg.BlocksPerZone {
		cfg.ZoneStripeLanes = cfg.BlocksPerZone
	}
	// The stripe chunk is how many consecutive zone sectors map to one
	// flash block before the zone/flash mapping advances to the next block
	// (and therefore the next die). The model's pages are 4 KiB bandwidth
	// units, so a chunk of 2 approximates one real multi-plane NAND page
	// worth of data per die; it must divide PagesPerBlock, so odd blocks
	// take 1.
	ppb := cfg.Geometry.PagesPerBlock
	chunk := 2
	if ppb%2 != 0 {
		chunk = 1
	}
	stripe := flash.Stripe{Blocks: cfg.BlocksPerZone, ChunkPages: chunk}
	if err := stripe.Validate(ppb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	arr, err := flash.NewArray(cfg.Geometry, cfg.Timing, false)
	if err != nil {
		return nil, err
	}
	n := cfg.Geometry.Blocks() / cfg.BlocksPerZone
	lanes := make([][]sim.Busy, n)
	for z := range lanes {
		lanes[z] = make([]sim.Busy, cfg.ZoneStripeLanes)
	}
	zoneSize := int64(cfg.BlocksPerZone) * cfg.Geometry.BlockBytes()
	var data *device.Segments
	if cfg.StoreData {
		data = device.NewSegments(zoneSize*int64(n), zoneSize)
	}
	return &Device{
		cfg:      cfg,
		array:    arr,
		data:     data,
		zoneSize: zoneSize,
		numZones: n,
		stripe:   stripe,
		state:    make([]ZoneState, n),
		wp:       make([]int64, n),
		reset:    make([]uint64, n),
		lanes:    lanes,
	}, nil
}

// NumZones returns the zone count.
func (d *Device) NumZones() int { return d.numZones }

// ZoneSize returns the usable bytes per zone.
func (d *Device) ZoneSize() int64 { return d.zoneSize }

// Size returns total usable capacity: every zone, no hidden OP.
func (d *Device) Size() int64 { return d.zoneSize * int64(d.numZones) }

// MaxOpenZones returns the open-zone cap.
func (d *Device) MaxOpenZones() int { return d.cfg.MaxOpenZones }

// MaxActiveZones returns the active-zone budget.
func (d *Device) MaxActiveZones() int { return d.cfg.MaxActiveZones }

// Array exposes the NAND for wear inspection. The array is guarded by d.mu,
// so while other goroutines use the device only its counters may be read.
func (d *Device) Array() *flash.Array { return d.array }

// ZoneInfo returns a snapshot of zone z.
func (d *Device) ZoneInfo(z int) (Zone, error) {
	if z < 0 || z >= d.numZones {
		return Zone{}, fmt.Errorf("%w: %d", ErrZoneRange, z)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return Zone{
		Index:  z,
		State:  d.state[z],
		Start:  int64(z) * d.zoneSize,
		WP:     d.wp[z] * device.SectorSize,
		Resets: d.reset[z],
	}, nil
}

// Zones returns snapshots of all zones.
func (d *Device) Zones() []Zone {
	out := make([]Zone, d.numZones)
	for z := range out {
		out[z], _ = d.ZoneInfo(z)
	}
	return out
}

// OpenZones returns the number of zones currently open.
func (d *Device) OpenZones() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.open
}

// ActiveZones returns the number of zones holding an active slot.
func (d *Device) ActiveZones() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active
}

// zoneOf maps a device offset to its zone.
func (d *Device) zoneOf(off int64) int { return int(off / d.zoneSize) }

// addrFor maps (zone, sector-within-zone) to a flash page via the chunked
// stripe: a chunk of consecutive sectors shares a block (one die);
// longer runs spread across the zone's blocks, which interleave across
// dies, so sequential zone writes parallelize like FTL-striped writes do.
func (d *Device) addrFor(z int, sector int64) flash.Addr {
	return d.stripe.Addr(z*d.cfg.BlocksPerZone, sector)
}

// programRange programs count sectors of zone z starting at startSector:
// page state, timing and wear only; the caller moves the payload into
// d.data. Called with d.mu held from the write-pointer update through
// the last page: NAND programs a block's pages strictly in order, so two
// writers to one zone must not interleave between reserving their sectors
// and programming them.
func (d *Device) programRange(now time.Duration, z int, startSector, count int64) (time.Duration, error) {
	latest := now
	tm := d.array.Timing()
	nlanes := int64(len(d.lanes[z]))
	for i := int64(0); i < count; i++ {
		sector := startSector + i
		// Per-zone bandwidth cap: each sector occupies one of the zone's
		// stripe lanes for a program slot, independent of physical die
		// availability. The observed completion is the later of the two.
		lane := &d.lanes[z][sector%nlanes]
		_, laneDone := lane.Acquire(now, tm.ProgPage+tm.Transfer)
		done, err := d.array.Program(now, d.addrFor(z, sector), nil)
		if err != nil {
			return 0, fmt.Errorf("zns: program: %w", err)
		}
		if laneDone > done {
			done = laneDone
		}
		if done > latest {
			latest = done
		}
	}
	return latest, nil
}

// Write appends n bytes at offset off, which must equal the target zone's
// write pointer. data may be nil for a metadata-only write, which reads back
// as zeros. Implicitly opens an empty/closed zone, honouring the open-zone
// cap and active-zone budget; a write that fills the zone transitions it to
// full and releases both slots. The payload is copied before Write returns,
// so the caller may reuse data at once.
func (d *Device) Write(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(now, data, n, off)
}

// writeLocked is Write with d.mu held by the caller, which keeps it held
// until the sectors are programmed.
func (d *Device) writeLocked(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	if err := device.CheckRange(off, n, d.Size()); err != nil {
		return 0, err
	}
	if data != nil && len(data) != n {
		return 0, fmt.Errorf("zns: data length %d != n %d", len(data), n)
	}
	if n == 0 {
		return 0, nil
	}
	z := d.zoneOf(off)
	if d.zoneOf(off+int64(n)-1) != z {
		return 0, fmt.Errorf("%w: [%d,+%d)", ErrCrossZone, off, n)
	}
	if d.state[z] == ZoneFull {
		return 0, fmt.Errorf("%w: zone %d", ErrZoneFull, z)
	}
	wp := d.wp[z]
	if wpOff := int64(z)*d.zoneSize + wp*device.SectorSize; off != wpOff {
		return 0, fmt.Errorf("%w: zone %d wp=%d got=%d", ErrNotWritePointer, z, wpOff, off)
	}
	if err := d.implicitOpenLocked(z); err != nil {
		return 0, err
	}
	count := int64(n) / device.SectorSize
	d.wp[z] = wp + count
	if d.wp[z]*device.SectorSize == d.zoneSize {
		d.releaseLocked(z)
		d.state[z] = ZoneFull
	}
	latest, err := d.programRange(now, z, wp, count)
	if err != nil {
		return 0, err
	}
	if data != nil {
		d.data.Write(off, data)
	} else {
		d.data.Zero(off, int64(n))
	}
	d.HostWrites.Add(uint64(n))
	return latest - now, nil
}

// implicitOpenLocked transitions empty/closed → open, enforcing the open
// cap and (for empty zones, which must acquire an active slot) the active
// budget.
func (d *Device) implicitOpenLocked(z int) error {
	switch d.state[z] {
	case ZoneOpen:
		return nil
	case ZoneClosed:
		// Already active: reopening only needs an open slot.
		if d.open >= d.cfg.MaxOpenZones {
			return fmt.Errorf("%w: cap %d", ErrTooManyOpen, d.cfg.MaxOpenZones)
		}
		d.state[z] = ZoneOpen
		d.open++
		return nil
	case ZoneEmpty:
		if d.open >= d.cfg.MaxOpenZones {
			return fmt.Errorf("%w: cap %d", ErrTooManyOpen, d.cfg.MaxOpenZones)
		}
		if d.active >= d.cfg.MaxActiveZones {
			return fmt.Errorf("%w: budget %d", ErrTooManyActive, d.cfg.MaxActiveZones)
		}
		d.state[z] = ZoneOpen
		d.open++
		d.active++
		return nil
	case ZoneFull:
		return fmt.Errorf("%w: zone %d", ErrZoneFull, z)
	}
	return fmt.Errorf("zns: zone %d in unexpected state %v", z, d.state[z])
}

// releaseLocked returns zone z's open/active slots ahead of a transition to
// full or empty.
func (d *Device) releaseLocked(z int) {
	switch d.state[z] {
	case ZoneOpen:
		d.open--
		d.active--
	case ZoneClosed:
		d.active--
	}
}

// Read reads len(p) bytes at off. Reads are random-access but must not
// cross the write pointer.
//
// Each page is read from the flash array for its state check and its
// die/channel time; the payload then comes out of d.data in one copy (a
// clear, without StoreData). d.mu is held from the write-pointer check
// through that copy: neither the array nor the segments lock on their own,
// and a Reset or rewrite of the zone must not land between the check and the
// copy, so a read sees exactly one generation of the zone.
func (d *Device) Read(now time.Duration, p []byte, off int64) (time.Duration, error) {
	n := len(p)
	if err := device.CheckRange(off, n, d.Size()); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	z := d.zoneOf(off)
	if d.zoneOf(off+int64(n)-1) != z {
		return 0, fmt.Errorf("%w: [%d,+%d)", ErrCrossZone, off, n)
	}
	zStart := int64(z) * d.zoneSize
	aSec := (off - zStart) / device.SectorSize
	bSec := aSec + int64(n)/device.SectorSize

	d.mu.Lock()
	defer d.mu.Unlock()
	if wp := d.wp[z]; bSec > wp {
		return 0, fmt.Errorf("%w: zone %d wp=%d read end=%d",
			ErrReadBeyondWP, z, zStart+wp*device.SectorSize, off+int64(n))
	}
	latest := now
	for s := aSec; s < bSec; s++ {
		done, _, err := d.array.Read(now, d.addrFor(z, s))
		if err != nil {
			return 0, fmt.Errorf("zns: read: %w", err)
		}
		if done > latest {
			latest = done
		}
	}
	d.data.Read(p, off)
	return latest - now, nil
}

// View implements Zoned over the payload segments: the range must lie in
// one zone, below its write pointer. Zones are append-only below the write
// pointer and Reset drops a viewed segment rather than recycling it
// (device.Segments), so the bytes stay as they are after a Reset too.
func (d *Device) View(off int64, n int) ([]byte, bool) {
	if n <= 0 || off < 0 || off+int64(n) > d.Size() {
		return nil, false
	}
	z := d.zoneOf(off)
	d.mu.Lock()
	defer d.mu.Unlock()
	if off+int64(n) > int64(z)*d.zoneSize+d.wp[z]*device.SectorSize {
		return nil, false
	}
	return d.data.View(off, n)
}

// DropPayload implements Zoned: it releases every payload segment the range
// covers whole (device.Segments.Drop) and keeps a partly covered one as it
// is. Without StoreData there is nothing to drop.
func (d *Device) DropPayload(off, n int64) {
	if d.data == nil || off < 0 || n <= 0 || off+n > d.Size() {
		return
	}
	d.mu.Lock()
	d.dropped += d.data.Drop(off, n)
	d.mu.Unlock()
}

// Payload returns the bytes the payload store holds and the bytes
// DropPayload has released from it.
func (d *Device) Payload() (held, dropped int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.data.Held(), d.dropped
}

// Reset erases zone z, returning it to empty with the write pointer at the
// zone start and releasing any open/active slot it held. This is the
// application-controlled reclaim primitive: Zone-Cache resets a zone per
// region eviction; the Region-Cache middle layer resets after migrating
// live regions out.
func (d *Device) Reset(now time.Duration, z int) (time.Duration, error) {
	if z < 0 || z >= d.numZones {
		return 0, fmt.Errorf("%w: %d", ErrZoneRange, z)
	}
	d.mu.Lock()
	d.releaseLocked(z)
	wasWritten := d.wp[z] * device.SectorSize
	d.state[z] = ZoneEmpty
	d.wp[z] = 0
	d.reset[z]++
	d.data.Zero(int64(z)*d.zoneSize, d.zoneSize)

	// Erase the zone's blocks before a writer can see the zone empty; they
	// sit on different dies and proceed in parallel, so the reset cost is
	// ~one block-erase of queueing.
	var latest time.Duration = now
	for b := 0; b < d.cfg.BlocksPerZone; b++ {
		blk := z*d.cfg.BlocksPerZone + b
		if d.array.WriteFront(blk) == 0 {
			continue // never programmed since last erase
		}
		done, err := d.array.Erase(now, blk)
		if err != nil {
			d.mu.Unlock()
			return 0, fmt.Errorf("zns: reset erase: %w", err)
		}
		if done > latest {
			latest = done
		}
	}
	d.mu.Unlock()
	if d.Trace != nil {
		d.Trace.Emit(obs.Event{T: now, Type: obs.EvZoneReset, Zone: int32(z), Region: -1, Bytes: wasWritten})
	}
	d.Resets.Inc()
	return latest - now, nil
}

// Finish moves zone z's write pointer to the end, transitioning it to full
// and releasing its open/active slots. The unwritten tail is filled with zero
// pages at real program cost — the zone-finish penalty that makes finishing
// a barely written zone expensive on real drives — and reads back as zeros.
// Finishing an already full zone is free.
func (d *Device) Finish(now time.Duration, z int) (time.Duration, error) {
	if z < 0 || z >= d.numZones {
		return 0, fmt.Errorf("%w: %d", ErrZoneRange, z)
	}
	d.mu.Lock()
	if d.state[z] == ZoneFull {
		d.Finishes.Inc()
		d.mu.Unlock()
		return 0, nil
	}
	start := d.wp[z]
	spz := d.zoneSize / device.SectorSize
	fill := spz - start
	d.releaseLocked(z)
	d.wp[z] = spz
	d.state[z] = ZoneFull
	d.Finishes.Inc()

	latest := now
	if fill > 0 {
		done, err := d.programRange(now, z, start, fill)
		if err != nil {
			d.mu.Unlock()
			return 0, fmt.Errorf("zns: finish fill: %w", err)
		}
		d.data.Zero(int64(z)*d.zoneSize+start*device.SectorSize, fill*device.SectorSize)
		latest = done
		d.FinishFill.Add(uint64(fill))
	}
	d.mu.Unlock()
	if d.Trace != nil {
		d.Trace.Emit(obs.Event{T: now, Type: obs.EvZoneFinish, Zone: int32(z), Region: -1})
	}
	return latest - now, nil
}

// MetricsInto implements obs.MetricSource: aggregate device counters plus a
// per-zone state/write-pointer/reset-count gauge set, which is what zonectl's
// watch mode and the Prometheus exposition render as the zone map. The
// per-zone closures read through ZoneInfo and are scrape-safe mid-run.
func (d *Device) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "zns")
	r.Counter("zns_host_write_bytes_total", "Bytes written by the host to the ZNS device", ls, &d.HostWrites)
	r.Counter("zns_zone_resets_total", "Zone reset commands executed", ls, &d.Resets)
	r.Counter("zns_zone_finishes_total", "Zone finish commands executed", ls, &d.Finishes)
	r.Counter("zns_finish_fill_pages_total", "Pages programmed to fill unwritten tails at zone finish", ls, &d.FinishFill)
	r.Gauge("zns_open_zones", "Zones currently in the open state", ls, func() float64 {
		return float64(d.OpenZones())
	})
	r.Gauge("zns_active_zones", "Zones currently holding an active slot (open + closed)", ls, func() float64 {
		return float64(d.ActiveZones())
	})
	r.Gauge("zns_zones", "Total zones exposed by the device", ls, func() float64 {
		return float64(d.numZones)
	})
	r.Gauge("zns_payload_bytes", "Bytes the payload store holds", ls, func() float64 {
		held, _ := d.Payload()
		return float64(held)
	})
	r.CounterFunc("zns_payload_dropped_bytes_total", "Payload bytes released because the layer above unmapped them", ls, func() uint64 {
		_, dropped := d.Payload()
		return uint64(dropped)
	})
	for z := 0; z < d.numZones; z++ {
		z := z
		zl := ls.With("zone", strconv.Itoa(z))
		r.Gauge("zns_zone_state", "Zone state (0=empty 1=open 2=closed 3=full)", zl, func() float64 {
			info, _ := d.ZoneInfo(z)
			return float64(info.State)
		})
		r.Gauge("zns_zone_wp_bytes", "Zone write pointer as bytes from zone start", zl, func() float64 {
			info, _ := d.ZoneInfo(z)
			return float64(info.WP)
		})
		r.Gauge("zns_zone_reset_count", "Lifecycle resets of this zone (wear proxy)", zl, func() float64 {
			info, _ := d.ZoneInfo(z)
			return float64(info.Resets)
		})
	}
}

var _ Zoned = (*Device)(nil)

// Close transitions an open zone to closed, releasing its open slot while
// preserving the write pointer and its active slot (a closed zone still
// holds zone resources — only finish or reset frees the active budget).
func (d *Device) Close(z int) error {
	if z < 0 || z >= d.numZones {
		return fmt.Errorf("%w: %d", ErrZoneRange, z)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state[z] == ZoneOpen {
		d.state[z] = ZoneClosed
		d.open--
	}
	return nil
}
