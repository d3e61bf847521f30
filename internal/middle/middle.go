// Package middle implements the paper's Region-Cache middle layer (§3.3,
// Figure 1c): a thin translation layer between CacheLib's region interface
// and the ZNS zone interface.
//
// Data management. Regions (e.g. 16 MiB) are packed into zones; the mapping
// region ID → (zone, slot) lives in an ordered map, and each zone carries a
// bitmap of valid region slots ("for a zone with 1024 MiB and 16 MiB
// regions, the bitmap will only cost 64 bits"). Rewriting a region deletes
// its old mapping and clears the old bitmap bit. Multiple zones are written
// concurrently — round-robin across OpenZones — because per-zone write
// bandwidth is below the device aggregate. A zone is finished when it has
// no space for another region.
//
// Garbage collection. A reclaim pass watches the empty-zone count; when it
// drops below MinEmptyZones (paper: 8), it selects a finished zone whose
// valid ratio is at or below VictimValidRatio (paper: 20%) — or failing
// that, the emptiest finished zone — migrates its live regions to open
// zones, and resets it. Migrated bytes are the layer's write amplification
// (Table 1's Region-Cache row). GC device traffic is issued "in the
// background": it occupies the device (delaying later host I/O through
// queueing) but is not charged to the host operation that triggered it.
//
// Co-design (§3.4). With a DropFilter installed, GC consults the cache
// before migrating each live region: a region the cache considers cold is
// dropped instead of copied ("not all the valid regions are needed to be
// migrated"), trading a slightly lower hit ratio for lower WA.
package middle

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
	"znscache/internal/zns"
)

// Errors returned by the middle layer.
var (
	ErrBadConfig = errors.New("middle: invalid configuration")
	ErrRegion    = errors.New("middle: region index out of range")
	ErrBounds    = errors.New("middle: access beyond region")
	ErrNotMapped = errors.New("middle: region not mapped")
	ErrNoSpace   = errors.New("middle: no writable zone available")
)

// Config parameterizes the layer.
type Config struct {
	// RegionSize is the region granularity (paper default 16 MiB).
	RegionSize int64
	// NumRegions is the cache capacity in regions. The gap between
	// NumRegions×RegionSize and the device capacity is the layer's
	// over-provisioning (Figure 4 sweeps it).
	NumRegions int
	// OpenZones is how many zones accept region writes concurrently
	// (default 4) — the multi-zone writing of §3.3.
	OpenZones int
	// MinEmptyZones triggers GC when the empty-zone pool drops below it
	// (paper: 8; default 4).
	MinEmptyZones int
	// VictimValidRatio is the preferred victim threshold: zones whose
	// valid-region ratio is at or below it are collected first (paper: 20%).
	VictimValidRatio float64
	// DropFilter, when non-nil, is the co-design hook: during GC it is
	// asked per live region whether the region may be dropped rather than
	// migrated. Dropped region IDs are reported through OnDrop.
	DropFilter func(regionID int) bool
	// OnDrop is called for every region GC dropped via DropFilter, under the
	// layer's lock and within the WriteRegion that ran the GC.
	OnDrop func(regionID int)
	// PlacementSeed seeds the open-zone selection noise (deterministic).
	PlacementSeed uint64
}

func (c *Config) fillDefaults() {
	if c.OpenZones == 0 {
		c.OpenZones = 4
	}
	if c.MinEmptyZones == 0 {
		c.MinEmptyZones = 4
	}
	if c.VictimValidRatio == 0 {
		c.VictimValidRatio = 0.20
	}
}

// mapping locates a region on the device.
type mapping struct {
	zone int
	slot int
}

// zoneMeta is the per-zone middle-layer state.
type zoneMeta struct {
	bitmap  uint64 // valid slots; regionsPerZone ≤ 64 enforced at build
	written int    // slots written so far (zone wp in region units)
	regions []int  // slot -> region ID (-1 when slot invalid)
}

// Layer is the middle layer; it implements cache.RegionStore.
type Layer struct {
	dev            zns.Zoned
	cfg            Config
	inFlight       int // openSet size cap: min(OpenZones, device active budget)
	regionsPerZone int

	mu       sync.Mutex
	mapTable map[int]mapping // region ID -> location
	zones    []zoneMeta
	empty    []int // zones with nothing written
	openSet  []int // zones currently accepting region writes
	rng      *sim.Rand
	full     map[int]struct{}
	scratch  []byte

	// Observability.
	WA       stats.WriteAmp // region bytes written by host vs device (incl. GC)
	GCRuns   stats.Counter
	Migrated stats.Counter // regions migrated by GC
	Dropped  stats.Counter // regions dropped by the co-design filter
	Resets   stats.Counter
	// Abandoned counts zones retired after a failed/torn write desynced
	// their write pointer from the slot accounting (fault injection).
	Abandoned stats.Counter
	// ZoneFinishes counts every finish the layer issues — exhausted zones
	// retired by placement, zones abandoned after faults, and zones finished
	// early to free the active budget.
	ZoneFinishes stats.Counter
	// BudgetStalls counts region writes that hit the device's open-zone cap
	// or active-zone budget and had to close, finish, or reset another zone
	// before they could proceed; StallTimeNs is the simulated time those
	// flushes spent waiting on that budget-freeing work.
	BudgetStalls stats.Counter
	StallTimeNs  stats.Counter
	// GCTimeNs accumulates simulated nanoseconds spent reclaiming zones
	// (migration reads/writes plus the zone reset) — the device-busy time GC
	// steals from foreground traffic.
	GCTimeNs stats.Counter
	// GCErrors counts collection passes that failed: a migration or a
	// reset the device refused.
	GCErrors stats.Counter
	// Trace receives GC victim/migrate/drop events; nil disables tracing.
	Trace *obs.Tracer
}

// New builds the layer over a ZNS device.
func New(dev zns.Zoned, cfg Config) (*Layer, error) {
	cfg.fillDefaults()
	if cfg.RegionSize <= 0 || cfg.RegionSize%device.SectorSize != 0 {
		return nil, fmt.Errorf("%w: region size %d", ErrBadConfig, cfg.RegionSize)
	}
	if dev.ZoneSize()%cfg.RegionSize != 0 {
		return nil, fmt.Errorf("%w: zone size %d not a multiple of region size %d",
			ErrBadConfig, dev.ZoneSize(), cfg.RegionSize)
	}
	rpz := int(dev.ZoneSize() / cfg.RegionSize)
	if rpz > 64 {
		return nil, fmt.Errorf("%w: %d regions per zone exceeds bitmap width 64", ErrBadConfig, rpz)
	}
	// OpenZones above the device's zone-resource budget is allowed — the
	// layer schedules around the budget at run time (closing, finishing, and
	// resetting zones to stay inside it), which is exactly the regime the
	// unwritten-contracts sweep measures. The in-flight set is still clamped
	// to the active budget: in-flight zones beyond it could never all hold
	// slots, they would only churn finishes.
	inFlight := cfg.OpenZones
	if b := dev.MaxActiveZones(); inFlight > b {
		inFlight = b
	}
	capRegions := dev.NumZones() * rpz
	if cfg.NumRegions == 0 {
		// Leave the GC watermark plus open zones as OP by default.
		cfg.NumRegions = capRegions - (cfg.MinEmptyZones+cfg.OpenZones)*rpz
	}
	// The layer needs headroom beyond the live regions: the open zones
	// accepting writes plus at least one zone of GC working space.
	minSlack := (cfg.OpenZones + 1) * rpz
	if cfg.NumRegions <= 0 || cfg.NumRegions > capRegions-minSlack {
		return nil, fmt.Errorf("%w: NumRegions %d must be in (0, %d] for %d-zone device",
			ErrBadConfig, cfg.NumRegions, capRegions-minSlack, dev.NumZones())
	}
	l := &Layer{
		dev:            dev,
		cfg:            cfg,
		inFlight:       inFlight,
		regionsPerZone: rpz,
		mapTable:       make(map[int]mapping),
		zones:          make([]zoneMeta, dev.NumZones()),
		full:           make(map[int]struct{}),
		rng:            sim.NewRand(cfg.PlacementSeed),
	}
	for z := range l.zones {
		l.zones[z].regions = make([]int, rpz)
		for s := range l.zones[z].regions {
			l.zones[z].regions[s] = -1
		}
	}
	for z := dev.NumZones() - 1; z >= 0; z-- {
		l.empty = append(l.empty, z)
	}
	return l, nil
}

// NumRegions implements cache.RegionStore.
func (l *Layer) NumRegions() int { return l.cfg.NumRegions }

// RegionSize implements cache.RegionStore.
func (l *Layer) RegionSize() int64 { return l.cfg.RegionSize }

// Device exposes the ZNS device for stats.
func (l *Layer) Device() zns.Zoned { return l.dev }

// EmptyZones reports the reclaimable-pool size (the middle_empty_zones gauge).
func (l *Layer) EmptyZones() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.empty)
}

// MappedRegions reports how many regions currently have a location.
func (l *Layer) MappedRegions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.mapTable)
}

// takeEmptyLocked pops an empty zone; returns -1 when none remain.
func (l *Layer) takeEmptyLocked() int {
	if len(l.empty) == 0 {
		return -1
	}
	z := l.empty[len(l.empty)-1]
	l.empty = l.empty[:len(l.empty)-1]
	return z
}

// writableZoneLocked returns an open zone with at least one free slot,
// opening a new zone from the empty pool as needed. Zones that fill are
// moved to the full set.
//
// The zone is chosen pseudo-randomly among the open set, not round-robin:
// with several flusher threads racing for zones (the concurrent multi-zone
// writing of §3.3), consecutive regions interleave irregularly across open
// zones. That placement noise is what leaves a few live regions behind in
// otherwise-dead zones and makes GC cost sensitive to the OP ratio
// (Table 1) — a perfectly round-robin placement would let region deaths
// drain zones in lockstep and hide that effect.
func (l *Layer) writableZoneLocked() (int, error) {
	for len(l.openSet) > 0 {
		idx := l.rng.Intn(len(l.openSet))
		z := l.openSet[idx]
		if l.zones[z].written < l.regionsPerZone {
			return z, nil
		}
		// Zone exhausted: finish it (release the device open slot) and
		// track it as a GC candidate.
		if _, err := l.dev.Finish(0, z); err != nil {
			return -1, err
		}
		l.ZoneFinishes.Inc()
		l.full[z] = struct{}{}
		l.openSet = append(l.openSet[:idx], l.openSet[idx+1:]...)
	}
	// Refill the open set, never beyond the device's active budget.
	for len(l.openSet) < l.inFlight {
		z := l.takeEmptyLocked()
		if z == -1 {
			break
		}
		l.openSet = append(l.openSet, z)
	}
	if len(l.openSet) == 0 {
		return -1, ErrNoSpace
	}
	return l.openSet[l.rng.Intn(len(l.openSet))], nil
}

// placeRegionLocked appends data as region id into a writable zone at time
// now, updating mapping and bitmap. Returns the device completion latency,
// including any time spent stalled on the device's zone-resource budget.
//
// A write rejected for zone resources (open cap or active budget) is not a
// fault: the flush stalls while the layer frees budget — closing another
// open zone, resetting a dead one, or finishing the fullest one — and then
// retries the same slot. The target zone is untouched by a budget rejection
// (the device refuses before moving the write pointer), so no abandonment
// is needed on that path.
//
// Any other failed device write may have advanced the zone's write pointer
// partway (a torn write), leaving the zone out of sync with the layer's slot
// accounting. The zone is abandoned — retired to the full set with its
// remaining slots unusable, so GC reclaims it later — and the error is
// returned; the caller's retry re-routes to a different zone.
//
// With keep set, a whole region's data is handed to the device
// (zns.Zoned.Keep) instead of copied, and kept reports whether the device
// kept it; only a host placement sets it.
func (l *Layer) placeRegionLocked(now time.Duration, id int, data []byte, keep bool) (lat time.Duration, kept bool, err error) {
	z, err := l.writableZoneLocked()
	if err != nil {
		return 0, false, err
	}
	zm := &l.zones[z]
	slot := zm.written
	off := l.slotOffset(z, slot)
	var stall time.Duration
	stalled := false
	// Two frees per in-flight zone bounds the juggle: each retry either
	// closes or retires one zone, and there are at most inFlight candidates.
	for attempt := 0; ; attempt++ {
		if keep && int64(len(data)) == l.cfg.RegionSize {
			lat, kept, err = l.dev.Keep(now+stall, data, off)
		} else {
			lat, err = l.dev.Write(now+stall, data, int(l.cfg.RegionSize), off)
		}
		if err == nil {
			break
		}
		if errors.Is(err, zns.ErrTooManyOpen) || errors.Is(err, zns.ErrTooManyActive) {
			if attempt < 2*l.inFlight+2 {
				took, ferr := l.freeBudgetLocked(now+stall, z, errors.Is(err, zns.ErrTooManyActive))
				if ferr == nil {
					stalled = true
					stall += took
					continue
				}
			}
			// Budget exhausted and nothing freeable: the zone's state is
			// intact (the device rejected before writing), so surface the
			// error without retiring it.
			return 0, false, fmt.Errorf("middle: zone write: %w", err)
		}
		l.abandonZoneLocked(z)
		return 0, false, fmt.Errorf("middle: zone write: %w", err)
	}
	if stalled {
		l.BudgetStalls.Inc()
		l.StallTimeNs.Add(uint64(stall))
	}
	zm.written++
	zm.bitmap |= 1 << uint(slot)
	zm.regions[slot] = id
	l.mapTable[id] = mapping{zone: z, slot: slot}
	if zm.written == l.regionsPerZone {
		// Filled exactly: it transitioned to full on the device already.
		l.full[z] = struct{}{}
		for i, o := range l.openSet {
			if o == z {
				l.openSet = append(l.openSet[:i], l.openSet[i+1:]...)
				break
			}
		}
	}
	return stall + lat, kept, nil
}

// freeBudgetLocked releases one unit of zone-resource budget so a stalled
// write to zone keep can proceed. Open-cap pressure is relieved by closing
// another in-flight zone (cheap: the zone stays writable and re-opens on its
// next write). Active-budget pressure needs a zone out of the open/closed
// states entirely: a dead in-flight zone (every slot already invalidated) is
// reset back to the empty pool for free; otherwise the fullest other
// in-flight zone is finished early — paying the device's fill cost and
// stranding its unwritten slots, the capacity-and-WA tax of running with
// fewer active zones than the layer wants. Returns the simulated time the
// freeing took, or an error when nothing can be freed.
func (l *Layer) freeBudgetLocked(now time.Duration, keep int, needActive bool) (time.Duration, error) {
	if !needActive {
		for _, z := range l.openSet {
			if z == keep {
				continue
			}
			info, err := l.dev.ZoneInfo(z)
			if err != nil || info.State != zns.ZoneOpen {
				continue
			}
			if err := l.dev.Close(z); err != nil {
				return 0, err
			}
			return 0, nil
		}
		return 0, fmt.Errorf("middle: open cap reached with no closable zone: %w", ErrNoSpace)
	}
	// A dead in-flight zone — written into, then every region invalidated —
	// frees its active slot by reset and rejoins the empty pool.
	for i, z := range l.openSet {
		if z == keep {
			continue
		}
		zm := &l.zones[z]
		if zm.written == 0 || zm.bitmap != 0 {
			continue
		}
		lat, err := l.dev.Reset(now, z)
		if err != nil {
			return 0, err
		}
		zm.written = 0
		for s := range zm.regions {
			zm.regions[s] = -1
		}
		l.openSet = append(l.openSet[:i], l.openSet[i+1:]...)
		l.empty = append(l.empty, z)
		return lat, nil
	}
	// Otherwise retire the fullest other in-flight zone: finishing the zone
	// with the least unwritten tail minimizes the fill cost and the stranded
	// slots.
	best := -1
	for _, z := range l.openSet {
		if z == keep || l.zones[z].written == 0 {
			continue
		}
		if best == -1 || l.zones[z].written > l.zones[best].written {
			best = z
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("middle: active budget exhausted with no reclaimable zone: %w", ErrNoSpace)
	}
	lat, err := l.dev.Finish(now, best)
	if err != nil {
		return 0, err
	}
	l.ZoneFinishes.Inc()
	l.zones[best].written = l.regionsPerZone // unwritten slots are stranded
	l.full[best] = struct{}{}
	for i, o := range l.openSet {
		if o == best {
			l.openSet = append(l.openSet[:i], l.openSet[i+1:]...)
			break
		}
	}
	return lat, nil
}

// abandonZoneLocked retires a zone whose device write pointer can no longer
// be trusted (a torn or failed write). Regions already placed in it remain
// readable at their slot offsets; the remaining slots are written off and
// the zone joins the GC candidates. Finish releases the device's open slot;
// if even that fails (crash), the bookkeeping still retires the zone so the
// layer never re-routes writes into it.
func (l *Layer) abandonZoneLocked(z int) {
	l.dev.Finish(0, z) //nolint:errcheck
	l.ZoneFinishes.Inc()
	zm := &l.zones[z]
	zm.written = l.regionsPerZone
	l.full[z] = struct{}{}
	l.Abandoned.Inc()
	for i, o := range l.openSet {
		if o == z {
			l.openSet = append(l.openSet[:i], l.openSet[i+1:]...)
			break
		}
	}
}

// slotOffset is the device offset of slot in zone z.
func (l *Layer) slotOffset(z, slot int) int64 {
	return int64(z)*l.dev.ZoneSize() + int64(slot)*l.cfg.RegionSize
}

// invalidateLocked clears region id's mapping and bitmap bit if present, and
// tells the device to forget the unmapped copy's bytes: nothing reads an
// unmapped slot, so the host memory behind it goes back now rather than at
// the zone's reset.
func (l *Layer) invalidateLocked(id int) {
	m, ok := l.mapTable[id]
	if !ok {
		return
	}
	delete(l.mapTable, id)
	zm := &l.zones[m.zone]
	zm.bitmap &^= 1 << uint(m.slot)
	zm.regions[m.slot] = -1
	l.dev.DropPayload(l.slotOffset(m.zone, m.slot), l.cfg.RegionSize)
}

// WriteRegion implements cache.RegionStore: invalidate any previous copy of
// the region, append the new copy to an open zone, then let the background
// collector catch up if the empty pool is low.
func (l *Layer) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	lat, _, err := l.writeRegion(now, id, data, false)
	return lat, err
}

// KeepRegion implements cache.RegionKeeper: WriteRegion, with data handed to
// the device to keep as the region's bytes.
func (l *Layer) KeepRegion(now time.Duration, id int, data []byte) (time.Duration, bool, error) {
	return l.writeRegion(now, id, data, true)
}

// writeRegion is WriteRegion, or KeepRegion when keep is set.
func (l *Layer) writeRegion(now time.Duration, id int, data []byte, keep bool) (time.Duration, bool, error) {
	if id < 0 || id >= l.cfg.NumRegions {
		return 0, false, fmt.Errorf("%w: %d", ErrRegion, id)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.invalidateLocked(id)
	lat, kept, err := l.placeRegionLocked(now, id, data, keep)
	if errors.Is(err, ErrNoSpace) {
		// Neither an empty nor an open zone: collection runs ahead of this
		// placement (a zero-valid or emergency victim), and it is tried once
		// more. Otherwise a device whose resets failed until both pools ran
		// dry would refuse every write for good, for collection runs only
		// after a write lands.
		l.tryCollectLocked(now)
		lat, kept, err = l.placeRegionLocked(now, id, data, keep)
	}
	if err != nil {
		return 0, false, err
	}
	l.WA.AddHost(uint64(l.cfg.RegionSize))
	l.WA.AddMedia(uint64(l.cfg.RegionSize))
	// Background GC: issued at `now`, not charged to this host write, and
	// its error does not fail the write, which has landed.
	l.tryCollectLocked(now)
	return lat, kept, nil
}

// tryCollectLocked is a collection pass for WriteRegion. A failed pass is
// counted, not returned: its victim stays collectable, and the next pass
// retries it.
func (l *Layer) tryCollectLocked(now time.Duration) {
	if err := l.collectLocked(now); err != nil {
		l.GCErrors.Inc()
	}
}

// ReadRegion implements cache.RegionStore: mapping lookup, then one device
// read at zone base + slot offset + in-region offset.
func (l *Layer) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if id < 0 || id >= l.cfg.NumRegions {
		return 0, fmt.Errorf("%w: %d", ErrRegion, id)
	}
	if off < 0 || n < 0 || off+int64(n) > l.cfg.RegionSize {
		return 0, fmt.Errorf("%w: [%d,+%d)", ErrBounds, off, n)
	}
	l.mu.Lock()
	m, ok := l.mapTable[id]
	if !ok {
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrNotMapped, id)
	}
	if p == nil {
		if cap(l.scratch) < n {
			l.scratch = make([]byte, n)
		}
		p = l.scratch[:n]
	}
	lat, err := l.dev.Read(now, p[:n], l.slotOffset(m.zone, m.slot)+off)
	l.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("middle: zone read: %w", err)
	}
	return lat, nil
}

// EvictRegion implements cache.RegionStore: a metadata operation on the
// device — clear the mapping and bitmap bit, and drop the host copy of the
// bytes (invalidateLocked). The flash comes back when GC (or a whole-zone
// invalidation) reclaims the zone.
func (l *Layer) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	if id < 0 || id >= l.cfg.NumRegions {
		return 0, fmt.Errorf("%w: %d", ErrRegion, id)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.invalidateLocked(id)
	return 0, nil
}

// collectLocked reclaims zones until the empty pool reaches the watermark.
// Wholly-dead zones are reset immediately (free reclaim); otherwise the
// victim with the lowest valid ratio is drained. Consecutive reclaims in one
// pass run back-to-back on the simulated timeline: each victim starts where
// the previous one (migrations and reset included) finished.
func (l *Layer) collectLocked(now time.Duration) error {
	for len(l.empty) < l.cfg.MinEmptyZones {
		victim, ok := l.pickVictimLocked()
		if !ok {
			return nil // nothing collectable yet
		}
		l.GCRuns.Inc()
		took, err := l.reclaimZoneLocked(now, victim)
		if err != nil {
			return err
		}
		l.GCTimeNs.Add(uint64(took))
		now += took
	}
	return nil
}

// pickVictimLocked chooses among finished zones: any zone at or below the
// valid-ratio threshold, else the emptiest one.
func (l *Layer) pickVictimLocked() (int, bool) {
	best, bestValid := -1, l.regionsPerZone+1
	for z := range l.full {
		v := bits.OnesCount64(l.zones[z].bitmap)
		// Ties go to the lowest zone: map order must not pick the victim.
		if v < bestValid || (v == bestValid && z < best) {
			best, bestValid = z, v
		}
	}
	if best == -1 {
		return -1, false
	}
	// The threshold is a preference, not a hard gate: when space runs out
	// the emptiest zone is taken regardless, like the paper's configurable
	// zone selection.
	if float64(bestValid) <= l.cfg.VictimValidRatio*float64(l.regionsPerZone) {
		return best, true
	}
	// Emergency: collect even expensive zones — but never a fully-valid one.
	// Migrating a zone with zero dead slots reclaims nothing: every region
	// is rewritten into the open zones and the "freed" zone must immediately
	// absorb the same data again, pure write amplification that can
	// ping-pong forever when the empty pool is down to its last zone.
	if len(l.empty) <= 1 && bestValid < l.regionsPerZone {
		return best, true
	}
	return best, bestValid == 0
}

// reclaimZoneLocked migrates (or co-design-drops) the victim's live regions
// and resets it, returning the simulated time the whole reclaim took —
// migration reads and writes plus the final zone reset, so callers and trace
// consumers see the full device-busy cost of the pass.
func (l *Layer) reclaimZoneLocked(now time.Duration, victim int) (time.Duration, error) {
	delete(l.full, victim)
	zm := &l.zones[victim]
	if l.Trace != nil {
		l.Trace.Emit(obs.Event{
			T: now, Type: obs.EvGCVictim, Zone: int32(victim), Region: -1,
			Bytes: int64(bits.OnesCount64(zm.bitmap)),
		})
	}
	cur := now
	for slot := 0; slot < l.regionsPerZone; slot++ {
		if zm.bitmap&(1<<uint(slot)) == 0 {
			continue
		}
		id := zm.regions[slot]
		// Co-design: ask the cache whether this region is worth keeping.
		if l.cfg.DropFilter != nil && l.cfg.DropFilter(id) {
			l.invalidateLocked(id)
			l.Dropped.Inc()
			if l.Trace != nil {
				l.Trace.Emit(obs.Event{T: cur, Type: obs.EvGCDrop, Zone: int32(victim), Region: int32(id)})
			}
			if l.cfg.OnDrop != nil {
				l.cfg.OnDrop(id)
			}
			continue
		}
		// Migrate: read the region and append it elsewhere. The old mapping
		// is cleared only after the new copy lands, so a failed migration
		// (injected error, crash) leaves the region readable in the victim
		// and the victim back in the GC candidates for a later retry.
		n := int(l.cfg.RegionSize)
		if cap(l.scratch) < n {
			l.scratch = make([]byte, n)
		}
		buf := l.scratch[:n]
		rlat, err := l.dev.Read(cur, buf, l.slotOffset(victim, slot))
		if err != nil {
			l.full[victim] = struct{}{}
			return 0, fmt.Errorf("middle: GC read: %w", err)
		}
		wlat, _, err := l.placeRegionLocked(cur+rlat, id, buf, false)
		if err != nil {
			l.full[victim] = struct{}{}
			return 0, fmt.Errorf("middle: GC write: %w", err)
		}
		// The old copy in the victim is dead now; clear its slot directly
		// (invalidateLocked would follow the map table to the new copy).
		// Its bytes go with the victim's reset below, never before the new
		// copy has landed.
		zm.bitmap &^= 1 << uint(slot)
		zm.regions[slot] = -1
		cur += rlat + wlat
		l.WA.AddMedia(uint64(l.cfg.RegionSize))
		l.Migrated.Inc()
		if l.Trace != nil {
			l.Trace.Emit(obs.Event{
				T: cur, Type: obs.EvGCMigrate, Zone: int32(victim),
				Region: int32(id), Bytes: l.cfg.RegionSize,
			})
		}
	}
	// The reset's latency is part of the reclaim: fold it into cur so the
	// returned duration (and anything downstream of it — GC busy-time
	// accounting, back-to-back victim scheduling) covers the whole pass
	// instead of silently ending at the last migration.
	rlat, err := l.dev.Reset(cur, victim)
	if err != nil {
		l.full[victim] = struct{}{} // keep it collectable for a later retry
		return 0, fmt.Errorf("middle: GC reset: %w", err)
	}
	cur += rlat
	l.Resets.Inc()
	zm.bitmap = 0
	zm.written = 0
	for s := range zm.regions {
		zm.regions[s] = -1
	}
	l.empty = append(l.empty, victim)
	return cur - now, nil
}

// MetricsInto implements obs.MetricSource: the layer's write amplification,
// GC activity counters, and pool-health gauges.
func (l *Layer) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "middle")
	r.WriteAmp("middle_wa", "Middle-layer write amplification", ls, &l.WA)
	r.Counter("middle_gc_runs_total", "GC reclaim passes", ls, &l.GCRuns)
	r.Counter("middle_gc_migrated_regions_total", "Live regions migrated by GC", ls, &l.Migrated)
	r.Counter("middle_gc_dropped_regions_total", "Regions dropped by the co-design filter", ls, &l.Dropped)
	r.Counter("middle_zone_resets_total", "Zones reclaimed (reset) by GC", ls, &l.Resets)
	r.Counter("middle_gc_busy_nanoseconds_total", "Simulated time spent in GC reclaim (migrations + resets)", ls, &l.GCTimeNs)
	r.Counter("middle_gc_errors_total", "GC passes that failed on a migration or reset the device refused", ls, &l.GCErrors)
	r.Counter("middle_zones_abandoned_total", "Zones retired after a torn/failed write", ls, &l.Abandoned)
	r.Counter("middle_zone_finish_total", "Zone finishes issued by the layer (exhausted, abandoned, or budget-evicted zones)", ls, &l.ZoneFinishes)
	r.Counter("middle_budget_stall_total", "Region flushes stalled on the device zone-resource budget", ls, &l.BudgetStalls)
	r.Counter("middle_budget_stall_nanoseconds_total", "Simulated time flushes spent freeing zone-resource budget", ls, &l.StallTimeNs)
	r.Gauge("middle_empty_zones", "Zones in the reclaimable pool", ls, func() float64 {
		return float64(l.EmptyZones())
	})
	r.Gauge("middle_mapped_regions", "Regions with a live device mapping", ls, func() float64 {
		return float64(l.MappedRegions())
	})
}

// RegionReadableBytes implements the cache engine's recovery cross-check. A
// mapped region is fully readable at its slot (regions land with a single
// whole-region write, so a torn placement never leaves a mapping behind); an
// unmapped region — evicted, GC-dropped, or torn away after the snapshot was
// taken — has nothing readable.
func (l *Layer) RegionReadableBytes(id int) (int64, bool) {
	if id < 0 || id >= l.cfg.NumRegions {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.mapTable[id]; !ok {
		return 0, true
	}
	return l.cfg.RegionSize, true
}

var (
	_ cache.RegionStore  = (*Layer)(nil)
	_ cache.RegionKeeper = (*Layer)(nil)
)
