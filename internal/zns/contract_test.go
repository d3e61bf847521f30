// External test package: the fault package imports zns for its wrapper
// types, so the zone-contract checker can only be exercised against the
// real device from outside the package.
package zns_test

import (
	"testing"

	"znscache/internal/device"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/zns"
)

func newContractDev(t *testing.T) *zns.Device {
	t.Helper()
	d, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4,
		MaxOpenZones:  4,
		StoreData:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeviceHonoursZoneContract drives the simulated ZNS device through the
// full zone lifecycle — partial writes, fills, finish, reset — and
// runs the invariant checker after every step. The checker is the same one
// the fault wrapper applies under the crash harness, so this test keeps the
// reference device and the checker's notion of the contract in lockstep.
func TestDeviceHonoursZoneContract(t *testing.T) {
	d := newContractDev(t)
	check := func(step string) {
		t.Helper()
		if err := fault.CheckZoneContract(d); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	check("creation")

	zs := d.ZoneSize()
	buf := make([]byte, device.SectorSize)

	// Partially write zone 0: open, WP mid-zone.
	if _, err := d.Write(0, buf, len(buf), 0); err != nil {
		t.Fatal(err)
	}
	check("partial write")

	// Fill zone 1 completely: implicitly finished, WP == size.
	for off := zs; off < 2*zs; off += device.SectorSize {
		if _, err := d.Write(0, buf, len(buf), off); err != nil {
			t.Fatal(err)
		}
	}
	check("zone fill")

	// Explicitly finish the part-written zone 0.
	if _, err := d.Finish(0, 0); err != nil {
		t.Fatal(err)
	}
	check("finish")

	// Write at zone 2's write pointer.
	if _, err := d.Write(0, buf, len(buf), 2*zs); err != nil {
		t.Fatal(err)
	}
	check("write at wp")

	// Open zones up to the cap, then reset them all back to empty.
	if _, err := d.Write(0, buf, len(buf), 3*zs); err != nil {
		t.Fatal(err)
	}
	check("open to cap")
	for z := 0; z < 4; z++ {
		if _, err := d.Reset(0, z); err != nil {
			t.Fatal(err)
		}
	}
	check("reset all")
}

// TestWrappedDeviceContractAudit runs the same lifecycle through the fault
// wrapper (zero fault rates) and asserts its continuous write-pointer audit
// stays clean: the wrapper must not report violations for legal behaviour.
func TestWrappedDeviceContractAudit(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 1})
	w := fault.WrapZoned(newContractDev(t), inj)
	buf := make([]byte, device.SectorSize)
	for z := 0; z < 3; z++ {
		for i := 0; i < 4; i++ {
			off := int64(z)*w.ZoneSize() + int64(i)*device.SectorSize
			if _, err := w.Write(0, buf, len(buf), off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.Finish(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Reset(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckContract(); err != nil {
		t.Fatalf("clean lifecycle flagged by the wrapper audit: %v", err)
	}
}
