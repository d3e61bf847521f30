package fault

import (
	"fmt"
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/zns"
)

// BlockDevice wraps a device.BlockDevice with fault injection. It is the
// layer Block-Cache's store sits on when faults are enabled.
type BlockDevice struct {
	inner device.BlockDevice
	inj   *Injector
}

// WrapBlock wraps dev with injector inj.
func WrapBlock(dev device.BlockDevice, inj *Injector) *BlockDevice {
	return &BlockDevice{inner: dev, inj: inj}
}

// ReadAt implements device.BlockDevice.
func (d *BlockDevice) ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error) {
	dec := d.inj.decideRead()
	if dec.err != nil {
		return 0, dec.err
	}
	lat, err := d.inner.ReadAt(now, p, off)
	return lat + dec.spike, err
}

// WriteAt implements device.BlockDevice. Torn writes persist a prefix of
// the sectors before failing; the crashing write does the same and then
// seals the device.
func (d *BlockDevice) WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	dec := d.inj.decideWrite(n / device.SectorSize)
	if dec.err != nil {
		if k := dec.tornSectors; k > 0 {
			var prefix []byte
			if data != nil {
				prefix = data[:k*device.SectorSize]
			}
			d.inner.WriteAt(now, prefix, k*device.SectorSize, off) //nolint:errcheck
		}
		return 0, dec.err
	}
	lat, err := d.inner.WriteAt(now, data, n, off)
	return lat + dec.spike, err
}

// Size implements device.BlockDevice.
func (d *BlockDevice) Size() int64 { return d.inner.Size() }

// TakeLastWriteStall forwards the inner device's foreground-GC stall report
// (the SyncCoster chain Block-Cache relies on); zero when the inner device
// does not track stalls.
func (d *BlockDevice) TakeLastWriteStall() time.Duration {
	if sr, ok := d.inner.(interface{ TakeLastWriteStall() time.Duration }); ok {
		return sr.TakeLastWriteStall()
	}
	return 0
}

var _ device.BlockDevice = (*BlockDevice)(nil)

// ZonedDevice wraps a zns.Zoned with fault injection and zone-contract
// auditing. Beyond injecting faults it records, after every operation, any
// violation of the written contract of a ZNS device: the write pointer must
// move monotonically between resets, never past the zone capacity, and
// reads must never have been served above it.
type ZonedDevice struct {
	inner zns.Zoned
	inj   *Injector

	mu         sync.Mutex
	lastWP     []int64 // bytes, per zone; -1 = unobserved
	violations []string
}

// maxViolations caps the recorded contract-violation log.
const maxViolations = 32

// WrapZoned wraps dev with injector inj.
func WrapZoned(dev zns.Zoned, inj *Injector) *ZonedDevice {
	wp := make([]int64, dev.NumZones())
	for i := range wp {
		wp[i] = -1
	}
	return &ZonedDevice{inner: dev, inj: inj, lastWP: wp}
}

// NumZones implements zns.Zoned.
func (d *ZonedDevice) NumZones() int { return d.inner.NumZones() }

// ZoneSize implements zns.Zoned.
func (d *ZonedDevice) ZoneSize() int64 { return d.inner.ZoneSize() }

// Size implements zns.Zoned.
func (d *ZonedDevice) Size() int64 { return d.inner.Size() }

// MaxOpenZones implements zns.Zoned.
func (d *ZonedDevice) MaxOpenZones() int { return d.inner.MaxOpenZones() }

// OpenZones implements zns.Zoned.
func (d *ZonedDevice) OpenZones() int { return d.inner.OpenZones() }

// MaxActiveZones implements zns.Zoned.
func (d *ZonedDevice) MaxActiveZones() int { return d.inner.MaxActiveZones() }

// ActiveZones implements zns.Zoned.
func (d *ZonedDevice) ActiveZones() int { return d.inner.ActiveZones() }

// ZoneInfo implements zns.Zoned.
func (d *ZonedDevice) ZoneInfo(z int) (zns.Zone, error) { return d.inner.ZoneInfo(z) }

// Close implements zns.Zoned.
func (d *ZonedDevice) Close(z int) error {
	if err := d.inj.decideMeta(); err != nil {
		return err
	}
	return d.inner.Close(z)
}

// zoneOf maps a device offset to its zone index.
func (d *ZonedDevice) zoneOf(off int64) int { return int(off / d.inner.ZoneSize()) }

// observe audits zone z's write pointer after an operation: it must not
// have moved backwards (afterReset expects exactly zero) nor past the zone
// capacity. Violations are recorded for CheckContract.
func (d *ZonedDevice) observe(z int, afterReset bool) {
	info, err := d.inner.ZoneInfo(z)
	if err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if info.WP < 0 || info.WP > d.inner.ZoneSize() {
		d.recordLocked("zone %d wp %d outside [0, %d]", z, info.WP, d.inner.ZoneSize())
	}
	if afterReset {
		if info.WP != 0 {
			d.recordLocked("zone %d wp %d after reset", z, info.WP)
		}
	} else if prev := d.lastWP[z]; prev >= 0 && info.WP < prev {
		d.recordLocked("zone %d wp moved backwards %d -> %d without reset", z, prev, info.WP)
	}
	d.lastWP[z] = info.WP
}

func (d *ZonedDevice) recordLocked(format string, args ...interface{}) {
	if len(d.violations) < maxViolations {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

// Write implements zns.Zoned with write-error, torn-write, latency, and
// crash injection. A torn write forwards only a seeded prefix of the
// sectors, leaving the zone's write pointer mid-write — exactly the state a
// power cut leaves a real zone in.
func (d *ZonedDevice) Write(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	lat, _, err := d.write(now, data, n, off, false)
	return lat, err
}

// Keep implements zns.Zoned. Only a write that passes through whole hands
// data over to the inner device; a torn prefix is copied, so a failed write
// is never kept.
func (d *ZonedDevice) Keep(now time.Duration, data []byte, off int64) (time.Duration, bool, error) {
	return d.write(now, data, len(data), off, true)
}

// write is Write, or Keep when keep is set.
func (d *ZonedDevice) write(now time.Duration, data []byte, n int, off int64, keep bool) (lat time.Duration, kept bool, err error) {
	dec := d.inj.decideWrite(n / device.SectorSize)
	if dec.err != nil {
		if k := dec.tornSectors; k > 0 {
			var prefix []byte
			if data != nil {
				prefix = data[:k*device.SectorSize]
			}
			d.inner.Write(now, prefix, k*device.SectorSize, off) //nolint:errcheck
			d.observe(d.zoneOf(off), false)
		}
		return 0, false, dec.err
	}
	if keep {
		lat, kept, err = d.inner.Keep(now, data, off)
	} else {
		lat, err = d.inner.Write(now, data, n, off)
	}
	if err == nil {
		d.observe(d.zoneOf(off), false)
	}
	return lat + dec.spike, kept, err
}

// Read implements zns.Zoned.
func (d *ZonedDevice) Read(now time.Duration, p []byte, off int64) (time.Duration, error) {
	dec := d.inj.decideRead()
	if dec.err != nil {
		return 0, dec.err
	}
	lat, err := d.inner.Read(now, p, off)
	return lat + dec.spike, err
}

// DropPayload implements zns.Zoned. It injects nothing: dropping host bytes
// is not a device command.
func (d *ZonedDevice) DropPayload(off, n int64) { d.inner.DropPayload(off, n) }

// Reset implements zns.Zoned.
func (d *ZonedDevice) Reset(now time.Duration, z int) (time.Duration, error) {
	dec := d.inj.decideReset()
	if dec.err != nil {
		return 0, dec.err
	}
	lat, err := d.inner.Reset(now, z)
	if err == nil {
		d.observe(z, true)
	}
	return lat + dec.spike, err
}

// Finish implements zns.Zoned.
func (d *ZonedDevice) Finish(now time.Duration, z int) (time.Duration, error) {
	if err := d.inj.decideMeta(); err != nil {
		return 0, err
	}
	lat, err := d.inner.Finish(now, z)
	if err == nil {
		d.observe(z, false)
	}
	return lat, err
}

// CheckContract returns an error describing every zone-contract violation
// the wrapper observed plus any static inconsistency in the current device
// state; nil when the contract held.
func (d *ZonedDevice) CheckContract() error {
	d.mu.Lock()
	recorded := append([]string(nil), d.violations...)
	d.mu.Unlock()
	if err := CheckZoneContract(d.inner); err != nil {
		recorded = append(recorded, err.Error())
	}
	if len(recorded) == 0 {
		return nil
	}
	return fmt.Errorf("fault: zone contract violated: %v", recorded)
}

var _ zns.Zoned = (*ZonedDevice)(nil)
