// Randomized zone state-machine property suite: thousands of seeded op
// sequences (write, read, reset, finish, close) run against the
// simulated device and an independent reference model of the ZNS state
// diagram, with every step cross-checked — returned error class, zone
// state, write pointer, open/active budget accounting, and read-back data —
// followed by a full zone-contract audit.
// A fault-injected variant replays the same op grammar through the fault
// wrapper, resynchronizing the model after injected failures, so torn
// writes and injected errors can never drive the device out of its own
// contract.
//
// External test package: internal/fault imports zns, so the suite (which
// wants the contract checker and the injector) must live outside package
// zns to avoid an import cycle.
package zns_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"znscache/internal/device"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/zns"
)

// smGeometry is the tiny device the suite drives: 8 zones of 8 sectors, so
// short sequences exercise every state transition including zone-full.
func smGeometry() flash.Geometry {
	return flash.Geometry{
		Channels: 1, DiesPerChan: 2, BlocksPerDie: 8,
		PagesPerBlock: 4, PageSize: device.SectorSize,
	}
}

// smBudget is one budget configuration of the suite.
type smBudget struct {
	name      string
	maxOpen   int
	maxActive int
}

// smBudgets are the four budget configurations every sequence count runs
// against: budget == cap and budget above cap, each loose and tight.
func smBudgets() []smBudget {
	return []smBudget{
		{name: "open4-active4", maxOpen: 4, maxActive: 4},
		{name: "open2-active4", maxOpen: 2, maxActive: 4},
		{name: "open1-active2", maxOpen: 1, maxActive: 2},
		{name: "open3-active3", maxOpen: 3, maxActive: 3},
	}
}

func smDevice(tb testing.TB, b smBudget) *zns.Device {
	tb.Helper()
	d, err := zns.New(zns.Config{
		Geometry:       smGeometry(),
		Timing:         flash.DefaultTiming(),
		BlocksPerZone:  2, // 8 zones, 8 sectors each
		MaxOpenZones:   b.maxOpen,
		MaxActiveZones: b.maxActive,
		StoreData:      true,
	})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return d
}

// Tag sentinels for modelled sector contents.
const (
	tagUnwritten = -1 // never programmed since the last reset
	tagUnknown   = -2 // post-fault: content valid but no longer predicted
)

// mZone is the reference model of one zone.
type mZone struct {
	state zns.ZoneState
	wp    int64   // sectors
	flash []int16 // per sector: tagUnwritten, tagUnknown, or 0..255 (0 = zero fill)
	dirty bool    // an injected fault touched this zone; skip predictions
}

// model is an independent implementation of the ZNS state diagram: zone
// states, write-pointer motion, and open/active budgets. It intentionally
// shares no code with the device.
type model struct {
	b      smBudget
	spz    int64 // sectors per zone
	zones  []mZone
	open   int
	active int
}

func newModel(b smBudget, numZones int, spz int64) *model {
	m := &model{b: b, spz: spz, zones: make([]mZone, numZones)}
	for i := range m.zones {
		m.zones[i].flash = make([]int16, spz)
		for s := range m.zones[i].flash {
			m.zones[i].flash[s] = tagUnwritten
		}
	}
	return m
}

func (m *model) implicitOpen(z *mZone) error {
	switch z.state {
	case zns.ZoneOpen:
		return nil
	case zns.ZoneClosed:
		if m.open >= m.b.maxOpen {
			return zns.ErrTooManyOpen
		}
		z.state = zns.ZoneOpen
		m.open++
		return nil
	case zns.ZoneEmpty:
		if m.open >= m.b.maxOpen {
			return zns.ErrTooManyOpen
		}
		if m.active >= m.b.maxActive {
			return zns.ErrTooManyActive
		}
		z.state = zns.ZoneOpen
		m.open++
		m.active++
		return nil
	default:
		return zns.ErrZoneFull
	}
}

func (m *model) release(z *mZone) {
	switch z.state {
	case zns.ZoneOpen:
		m.open--
		m.active--
	case zns.ZoneClosed:
		m.active--
	}
}

// write mirrors Device.Write for a single-zone, sector-aligned write of n
// sectors at sector a, all filled with tag.
func (m *model) write(zi int, a, n int64, tag int16) error {
	z := &m.zones[zi]
	if n == 0 {
		return nil
	}
	if z.state == zns.ZoneFull {
		return zns.ErrZoneFull
	}
	if a != z.wp {
		return zns.ErrNotWritePointer
	}
	if err := m.implicitOpen(z); err != nil {
		return err
	}
	for s := a; s < a+n; s++ {
		z.flash[s] = tag
	}
	z.wp += n
	if z.wp == m.spz {
		m.release(z)
		z.state = zns.ZoneFull
	}
	return nil
}

// read predicts the outcome of reading n sectors at sector a and returns
// the expected per-sector tags.
func (m *model) read(zi int, a, n int64) ([]int16, error) {
	z := &m.zones[zi]
	if a+n > z.wp {
		return nil, zns.ErrReadBeyondWP
	}
	return z.flash[a : a+n], nil
}

func (m *model) reset(zi int) {
	z := &m.zones[zi]
	m.release(z)
	z.state = zns.ZoneEmpty
	z.wp = 0
	for s := range z.flash {
		z.flash[s] = tagUnwritten
	}
	z.dirty = false // a reset re-establishes fully known state
}

func (m *model) finish(zi int) {
	z := &m.zones[zi]
	if z.state == zns.ZoneFull {
		return
	}
	for s := z.wp; s < m.spz; s++ {
		z.flash[s] = 0
	}
	m.release(z)
	z.wp = m.spz
	z.state = zns.ZoneFull
}

func (m *model) close(zi int) {
	z := &m.zones[zi]
	if z.state == zns.ZoneOpen {
		z.state = zns.ZoneClosed
		m.open--
	}
}

// resync reconciles the model with the device after an injected fault: the
// touched zone's contents become unpredicted, its externally visible state
// is copied back, and the budget counters are re-read. The zone contract
// checker independently verifies those device-reported values against the
// device's own per-zone states, so resync cannot launder a contract bug.
func (m *model) resync(dev zns.Zoned, zi int) {
	info, err := dev.ZoneInfo(zi)
	if err != nil {
		return
	}
	z := &m.zones[zi]
	z.state = info.State
	z.wp = info.WP / device.SectorSize
	for s := range z.flash {
		if int64(s) < z.wp {
			z.flash[s] = tagUnknown
		} else {
			z.flash[s] = tagUnwritten
		}
	}
	z.dirty = z.dirty || info.WP > 0 || info.State != zns.ZoneEmpty
	m.open = dev.OpenZones()
	m.active = dev.ActiveZones()
}

// opKind is the decoded operation class.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opReset
	opFinish
	opClose
)

// decodeOp maps three raw bytes onto an op against the current model state:
// writes are addressed relative to the zone's write pointer (one sector
// behind it through two past it), so sequences keep hitting the interesting
// boundaries no matter how the state evolved.
func decodeOp(m *model, b0, b1, b2 byte) (kind opKind, zi int, p1, p2 int64, tag int16) {
	zi = int(b1) % len(m.zones)
	z := &m.zones[zi]
	sel := int(b0) % 100
	switch {
	case sel < 38:
		kind = opWrite
		delta := int64(b2%4) - 1 // -1 .. +2
		a := z.wp + delta
		if a < 0 {
			a = 0
		}
		if a >= m.spz {
			a = m.spz - 1
		}
		n := int64(b2/16)%3 + 1
		if a+n > m.spz {
			n = m.spz - a
		}
		return kind, zi, a, n, 0
	case sel < 48:
		// A write exactly at the write pointer; a full zone reads instead.
		if z.wp >= m.spz {
			return opRead, zi, 0, 0, 0
		}
		n := int64(b2)%2 + 1
		if z.wp+n > m.spz {
			n = m.spz - z.wp
		}
		return opWrite, zi, z.wp, n, 0
	case sel < 63:
		kind = opRead
		a := int64(b2) % m.spz
		n := int64(b2/32)%2 + 1
		if a+n > m.spz {
			n = m.spz - a
		}
		return kind, zi, a, n, 0
	case sel < 73:
		return opReset, zi, 0, 0, 0
	case sel < 81:
		return opFinish, zi, 0, 0, 0
	default:
		return opClose, zi, 0, 0, 0
	}
}

// sectorFill builds n sectors filled with tag.
func sectorFill(tag int16, n int64) []byte {
	buf := make([]byte, n*device.SectorSize)
	for i := range buf {
		buf[i] = byte(tag)
	}
	return buf
}

// smRun drives one op sequence against dev (the possibly-wrapped interface)
// and inner (the raw device for contract audits), cross-checking against a
// fresh model. faulty relaxes per-op predictions on zones an injected fault
// has touched; the zone contract must hold regardless.
func smRun(tb testing.TB, b smBudget, dev zns.Zoned, inner *zns.Device, raw []byte, faulty bool) {
	tb.Helper()
	spz := inner.ZoneSize() / device.SectorSize
	m := newModel(b, inner.NumZones(), spz)
	tag := int16(0)
	nextTag := func() int16 {
		tag = tag%255 + 1 // 1..255; zero is reserved for holes
		return tag
	}
	for i := 0; i+3 <= len(raw); i += 3 {
		kind, zi, p1, p2, _ := decodeOp(m, raw[i], raw[i+1], raw[i+2])
		z := &m.zones[zi]
		skip := faulty && z.dirty
		var wantErr, gotErr error
		step := fmt.Sprintf("op %d %v zone %d p1=%d p2=%d", i/3, kind, zi, p1, p2)

		switch kind {
		case opWrite:
			t := nextTag()
			data := sectorFill(t, p2)
			off := int64(zi)*inner.ZoneSize() + p1*device.SectorSize
			if skip {
				_, gotErr = dev.Write(0, data, len(data), off)
			} else {
				wantErr = m.write(zi, p1, p2, t)
				_, gotErr = dev.Write(0, data, len(data), off)
			}
		case opRead:
			buf := make([]byte, p2*device.SectorSize)
			off := int64(zi)*inner.ZoneSize() + p1*device.SectorSize
			if skip {
				_, gotErr = dev.Read(0, buf, off)
			} else {
				var tags []int16
				tags, wantErr = m.read(zi, p1, p2)
				_, gotErr = dev.Read(0, buf, off)
				if wantErr == nil && gotErr == nil {
					for s := int64(0); s < p2; s++ {
						want := tags[s]
						if want == tagUnknown {
							continue
						}
						if got := buf[s*device.SectorSize]; got != byte(want) {
							tb.Fatalf("%s: sector %d read tag %d, model says %d", step, p1+s, got, want)
						}
					}
				}
			}
		case opReset:
			_, gotErr = dev.Reset(0, zi)
			if gotErr == nil {
				m.reset(zi)
				skip = false
			}
		case opFinish:
			_, gotErr = dev.Finish(0, zi)
			if gotErr == nil && !skip {
				m.finish(zi)
			}
		case opClose:
			gotErr = dev.Close(zi)
			if gotErr == nil && !skip {
				m.close(zi)
			}
		}

		// Injected faults end prediction for the zone until a clean reset;
		// ops on a dirty zone still mutate device state (implicit opens,
		// budget slots), so the model re-reads the zone after each one.
		// Everything else must match the model exactly.
		if faulty && (skip || (gotErr != nil && errors.Is(gotErr, fault.ErrInjected))) {
			m.resync(dev, zi)
		} else if !skip {
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
				tb.Fatalf("%s: device err = %v, model err = %v", step, gotErr, wantErr)
			}
			info, err := inner.ZoneInfo(zi)
			if err != nil {
				tb.Fatalf("%s: ZoneInfo: %v", step, err)
			}
			mz := &m.zones[zi]
			if info.State != mz.state {
				tb.Fatalf("%s: state %v, model %v", step, info.State, mz.state)
			}
			if info.WP != mz.wp*device.SectorSize {
				tb.Fatalf("%s: wp %d, model %d", step, info.WP, mz.wp*device.SectorSize)
			}
			if !faulty {
				if got := inner.OpenZones(); got != m.open {
					tb.Fatalf("%s: open %d, model %d", step, got, m.open)
				}
				if got := inner.ActiveZones(); got != m.active {
					tb.Fatalf("%s: active %d, model %d", step, got, m.active)
				}
			}
		}

		// The written contract must hold after every single op.
		if err := fault.CheckZoneContract(inner); err != nil {
			tb.Fatalf("%s: %v", step, err)
		}
	}
}

const smOpsPerSeq = 64

// TestZoneStateMachine is the headline property suite: seeded random op
// sequences across four budget configurations, each cross-checked against
// the reference model op by op.
func TestZoneStateMachine(t *testing.T) {
	seqs := 2000
	if testing.Short() {
		seqs = 250
	}
	for _, b := range smBudgets() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seqs; seed++ {
				raw := make([]byte, 3*smOpsPerSeq)
				rand.New(rand.NewSource(int64(seed))).Read(raw)
				dev := smDevice(t, b)
				smRun(t, b, dev, dev, raw, false)
			}
		})
	}
}

// TestZoneStateMachineFaulty replays the op grammar through the fault
// wrapper with injected errors and torn writes. Zones touched by a fault
// stop being predicted until reset, but the zone contract — budgets, state
// diagram, WP monotonicity — must survive every schedule.
func TestZoneStateMachineFaulty(t *testing.T) {
	seqs := 400
	if testing.Short() {
		seqs = 80
	}
	for _, b := range smBudgets() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seqs; seed++ {
				raw := make([]byte, 3*smOpsPerSeq)
				rand.New(rand.NewSource(int64(1000000 + seed))).Read(raw)
				inj := fault.NewInjector(fault.Config{
					Seed:           uint64(seed)*2654435761 + 1,
					WriteErrorRate: 0.05,
					TornWriteRate:  0.08,
					ReadErrorRate:  0.04,
					ResetErrorRate: 0.04,
				})
				dev := smDevice(t, b)
				wrapped := fault.WrapZoned(dev, inj)
				smRun(t, b, wrapped, dev, raw, true)
				if err := wrapped.CheckContract(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
