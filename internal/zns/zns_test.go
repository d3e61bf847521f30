package zns

import (
	"bytes"
	"errors"
	"fmt"

	"testing"
	"testing/quick"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
)

func testConfig() Config {
	return Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4, // 16 zones of 256 KiB
		MaxOpenZones:  4,
		StoreData:     true,
	}
}

func newTestDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.BlocksPerZone = 0
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero BlocksPerZone err = %v", err)
	}
	cfg = testConfig()
	cfg.BlocksPerZone = 7 // 64 blocks % 7 != 0
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("non-dividing BlocksPerZone err = %v", err)
	}
	cfg = testConfig()
	cfg.Geometry.PageSize = 512
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad page size err = %v", err)
	}
}

func TestGeometryExport(t *testing.T) {
	d := newTestDev(t)
	if d.NumZones() != 16 {
		t.Fatalf("NumZones = %d, want 16", d.NumZones())
	}
	if d.ZoneSize() != 4*16*device.SectorSize {
		t.Fatalf("ZoneSize = %d", d.ZoneSize())
	}
	// Full raw capacity exported: the ZNS capacity advantage.
	if d.Size() != testConfig().Geometry.TotalBytes() {
		t.Fatalf("Size = %d, want raw %d", d.Size(), testConfig().Geometry.TotalBytes())
	}
}

func TestSequentialWriteAndRead(t *testing.T) {
	d := newTestDev(t)
	want := bytes.Repeat([]byte{0xC3}, 3*device.SectorSize)
	if _, err := d.Write(0, want, len(want), 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := d.Read(0, got, 0); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round-trip mismatch")
	}
	z, _ := d.ZoneInfo(0)
	if z.State != ZoneOpen || z.WP != int64(len(want)) {
		t.Fatalf("zone info = %+v, want OPEN wp=%d", z, len(want))
	}
}

func TestWriteNotAtWPRejected(t *testing.T) {
	d := newTestDev(t)
	if _, err := d.Write(0, nil, device.SectorSize, device.SectorSize); !errors.Is(err, ErrNotWritePointer) {
		t.Fatalf("gap write err = %v, want ErrNotWritePointer", err)
	}
	d.Write(0, nil, device.SectorSize, 0)
	// Rewriting sector 0 is also a WP violation — no in-place updates.
	if _, err := d.Write(0, nil, device.SectorSize, 0); !errors.Is(err, ErrNotWritePointer) {
		t.Fatalf("rewrite err = %v, want ErrNotWritePointer", err)
	}
}

func TestReadBeyondWPRejected(t *testing.T) {
	d := newTestDev(t)
	d.Write(0, nil, device.SectorSize, 0)
	buf := make([]byte, 2*device.SectorSize)
	if _, err := d.Read(0, buf, 0); !errors.Is(err, ErrReadBeyondWP) {
		t.Fatalf("read past wp err = %v, want ErrReadBeyondWP", err)
	}
}

func TestCrossZoneIORejected(t *testing.T) {
	d := newTestDev(t)
	zs := d.ZoneSize()
	// Fill zone 0 to its end, then try writing across the boundary.
	if _, err := d.Write(0, nil, int(zs), 0); err != nil {
		t.Fatalf("fill zone 0: %v", err)
	}
	buf := make([]byte, 2*device.SectorSize)
	if _, err := d.Read(0, buf, zs-device.SectorSize); !errors.Is(err, ErrCrossZone) {
		t.Fatalf("cross-zone read err = %v, want ErrCrossZone", err)
	}
}

func TestZoneFillTransitionsToFull(t *testing.T) {
	d := newTestDev(t)
	if _, err := d.Write(0, nil, int(d.ZoneSize()), 0); err != nil {
		t.Fatal(err)
	}
	z, _ := d.ZoneInfo(0)
	if z.State != ZoneFull {
		t.Fatalf("state = %v, want FULL", z.State)
	}
	if d.OpenZones() != 0 {
		t.Fatalf("OpenZones = %d, want 0 after fill", d.OpenZones())
	}
	if _, err := d.Write(0, nil, device.SectorSize, d.ZoneSize()-device.SectorSize); err == nil {
		t.Fatal("write into full zone succeeded")
	}
}

func TestOpenZoneCapEnforced(t *testing.T) {
	cfg := testConfig()
	// Leave slack in the active budget so this test isolates the open cap:
	// with budget == cap, closing a zone frees an open slot but not the
	// active slot a new empty zone needs (covered by the active-zone tests).
	cfg.MaxActiveZones = 6
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 4; z++ {
		if _, err := d.Write(0, nil, device.SectorSize, int64(z)*d.ZoneSize()); err != nil {
			t.Fatalf("open zone %d: %v", z, err)
		}
	}
	if _, err := d.Write(0, nil, device.SectorSize, 4*d.ZoneSize()); !errors.Is(err, ErrTooManyOpen) {
		t.Fatalf("5th open err = %v, want ErrTooManyOpen", err)
	}
	// Closing one zone frees a slot.
	if err := d.Close(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, nil, device.SectorSize, 4*d.ZoneSize()); err != nil {
		t.Fatalf("write after close: %v", err)
	}
	// Reopening the closed zone at its wp works (and re-consumes a slot)...
	if err := d.Close(4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, nil, device.SectorSize, device.SectorSize); err != nil {
		t.Fatalf("reopen closed zone: %v", err)
	}
}

func TestMaxActiveBelowOpenRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActiveZones = 2 // below MaxOpenZones 4
	_, err := New(cfg)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("MaxActiveZones < MaxOpenZones err = %v, want ErrBadConfig", err)
	}
}

func TestActiveZoneBudgetEnforced(t *testing.T) {
	d := newTestDev(t) // open cap 4, active budget defaults to 4
	if d.MaxActiveZones() != 4 {
		t.Fatalf("MaxActiveZones = %d, want defaulted 4", d.MaxActiveZones())
	}
	for z := 0; z < 4; z++ {
		if _, err := d.Write(0, nil, device.SectorSize, int64(z)*d.ZoneSize()); err != nil {
			t.Fatalf("open zone %d: %v", z, err)
		}
	}
	// Closing frees an open slot but not the active slot: a new empty zone
	// still cannot be opened.
	if err := d.Close(0); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 3 || d.ActiveZones() != 4 {
		t.Fatalf("open=%d active=%d after close, want 3/4", d.OpenZones(), d.ActiveZones())
	}
	if _, err := d.Write(0, nil, device.SectorSize, 4*d.ZoneSize()); !errors.Is(err, ErrTooManyActive) {
		t.Fatalf("open 5th with exhausted budget err = %v, want ErrTooManyActive", err)
	}
	// Finishing the closed zone returns its active slot.
	if _, err := d.Finish(0, 0); err != nil {
		t.Fatal(err)
	}
	if d.ActiveZones() != 3 {
		t.Fatalf("ActiveZones = %d after finish, want 3", d.ActiveZones())
	}
	if _, err := d.Write(0, nil, device.SectorSize, 4*d.ZoneSize()); err != nil {
		t.Fatalf("write after finish freed budget: %v", err)
	}
	// Reset frees it too.
	if _, err := d.Reset(0, 4); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 3 || d.ActiveZones() != 3 {
		t.Fatalf("open=%d active=%d after reset, want 3/3", d.OpenZones(), d.ActiveZones())
	}
}

func TestFullZoneHoldsNoActiveSlot(t *testing.T) {
	d := newTestDev(t)
	if _, err := d.Write(0, nil, int(d.ZoneSize()), 0); err != nil {
		t.Fatal(err)
	}
	if d.ActiveZones() != 0 {
		t.Fatalf("ActiveZones = %d after auto-full, want 0", d.ActiveZones())
	}
}

func TestResetReturnsZoneToEmpty(t *testing.T) {
	d := newTestDev(t)
	want := bytes.Repeat([]byte{7}, device.SectorSize)
	d.Write(0, want, len(want), 0)
	if _, err := d.Reset(0, 0); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	z, _ := d.ZoneInfo(0)
	if z.State != ZoneEmpty || z.WP != 0 || z.Resets != 1 {
		t.Fatalf("after reset: %+v", z)
	}
	if d.OpenZones() != 0 {
		t.Fatalf("OpenZones = %d after reset", d.OpenZones())
	}
	// The zone is writable from the start again, and old data is gone.
	fresh := bytes.Repeat([]byte{9}, device.SectorSize)
	if _, err := d.Write(0, fresh, len(fresh), 0); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
	got := make([]byte, device.SectorSize)
	d.Read(0, got, 0)
	if !bytes.Equal(got, fresh) {
		t.Fatal("stale data visible after reset")
	}
}

func TestResetEmptyZoneIsCheap(t *testing.T) {
	d := newTestDev(t)
	lat, err := d.Reset(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 {
		t.Fatalf("resetting empty zone cost %v, want 0 (no erases)", lat)
	}
	if d.Array().TotalErases() != 0 {
		t.Fatal("empty reset erased blocks")
	}
}

func TestFinishMakesZoneFull(t *testing.T) {
	d := newTestDev(t)
	d.Write(0, nil, device.SectorSize, 0)
	if _, err := d.Finish(0, 0); err != nil {
		t.Fatal(err)
	}
	z, _ := d.ZoneInfo(0)
	if z.State != ZoneFull || z.WP != d.ZoneSize() {
		t.Fatalf("after finish: %+v", z)
	}
	if d.OpenZones() != 0 {
		t.Fatal("finish did not release open slot")
	}
	// The unwritten tail reads back as zeros.
	got := bytes.Repeat([]byte{0xFF}, device.SectorSize)
	if _, err := d.Read(0, got, d.ZoneSize()-device.SectorSize); err != nil {
		t.Fatalf("read of finished tail: %v", err)
	}
	if !bytes.Equal(got, make([]byte, device.SectorSize)) {
		t.Fatal("finished tail not zero-filled")
	}
}

// TestReadDuringResetSeesOneGeneration: the device is shared by a writer
// that fills a zone in four writes of one tag and resets it, over and over,
// and a reader of the zone's first half. Every read must either find the
// half not yet written (ErrReadBeyondWP) or return one generation's bytes
// throughout — never a page the reset already erased, never two
// generations mixed.
func TestReadDuringResetSeesOneGeneration(t *testing.T) {
	const zone, generations, parts = 2, 300, 4
	d := newTestDev(t)
	zs := d.ZoneSize()
	base := int64(zone) * zs

	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := 1; gen <= generations; gen++ {
			part := bytes.Repeat([]byte{byte(gen%255 + 1)}, int(zs/parts))
			for i := int64(0); i < parts; i++ {
				if _, err := d.Write(0, part, len(part), base+i*int64(len(part))); err != nil {
					t.Errorf("generation %d write %d: %v", gen, i, err)
					return
				}
			}
			if _, err := d.Reset(0, zone); err != nil {
				t.Errorf("generation %d reset: %v", gen, err)
				return
			}
		}
	}()

	buf := make([]byte, zs/2)
	var whole, partial int
	check := func() error {
		_, err := d.Read(0, buf, base)
		if errors.Is(err, ErrReadBeyondWP) {
			partial++
			return nil
		}
		if err != nil {
			return fmt.Errorf("read racing a reset: %w", err)
		}
		whole++
		for i, b := range buf {
			if b == 0 || b != buf[0] {
				return fmt.Errorf("torn read: tag %d at byte 0, %d at byte %d", buf[0], b, i)
			}
		}
		return nil
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := check(); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
	t.Logf("%d reads of the written half, %d rejected beyond the write pointer", whole, partial)
}

func TestZonesSnapshot(t *testing.T) {
	d := newTestDev(t)
	d.Write(0, nil, device.SectorSize, 0)
	zs := d.Zones()
	if len(zs) != 16 {
		t.Fatalf("Zones len = %d", len(zs))
	}
	if zs[0].State != ZoneOpen || zs[1].State != ZoneEmpty {
		t.Fatalf("snapshot states: %v, %v", zs[0].State, zs[1].State)
	}
	if zs[3].Start != 3*d.ZoneSize() {
		t.Fatalf("zone 3 start = %d", zs[3].Start)
	}
}

func TestHostWriteAccounting(t *testing.T) {
	d := newTestDev(t)
	d.Write(0, nil, 3*device.SectorSize, 0)
	if d.HostWrites.Load() != 3*device.SectorSize {
		t.Fatalf("HostWrites = %d", d.HostWrites.Load())
	}
	// Device-level WA of a ZNS drive is 1 by construction: flash programs
	// equal host sectors written.
	if d.Array().Programs.Load() != 3 {
		t.Fatalf("flash programs = %d, want 3", d.Array().Programs.Load())
	}
}

func TestLargeZoneWriteParallelism(t *testing.T) {
	// A full-zone write stripes over the zone's 4 blocks (4 dies): it must
	// beat fully-serial programming by at least 2x.
	d := newTestDev(t)
	tm := d.Array().Timing()
	sectors := int(d.ZoneSize() / device.SectorSize)
	lat, err := d.Write(0, nil, int(d.ZoneSize()), 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := time.Duration(sectors) * (tm.ProgPage + tm.Transfer)
	if lat >= serial/2 {
		t.Fatalf("zone write %v, serial estimate %v: no parallelism", lat, serial)
	}
}

// Property: any sequence of (write at wp, reset) keeps the invariant
// wp ∈ [0, zoneSize] and state consistent with wp.
func TestZoneStateInvariant(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		d, _ := New(testConfig())
		const z = 1
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // write one sector at wp
				zi, _ := d.ZoneInfo(z)
				if zi.State == ZoneFull {
					continue
				}
				if _, err := d.Write(0, nil, device.SectorSize, zi.Start+zi.WP); err != nil {
					return false
				}
			case 2:
				if _, err := d.Reset(0, z); err != nil {
					return false
				}
			}
			zi, _ := d.ZoneInfo(z)
			if zi.WP < 0 || zi.WP > d.ZoneSize() {
				return false
			}
			if zi.WP == 0 && zi.State != ZoneEmpty {
				return false
			}
			if zi.WP == d.ZoneSize() && zi.State != ZoneFull {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// writtenRegion returns a device whose zone 0 holds one region-sized write
// (the whole 256 KiB zone, striped over its four blocks), and a buffer to
// read it back into.
func writtenRegion(tb testing.TB, storeData bool) (*Device, []byte) {
	tb.Helper()
	cfg := testConfig()
	cfg.StoreData = storeData
	d, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	region := bytes.Repeat([]byte{0x3C}, int(d.ZoneSize()))
	if _, err := d.Write(0, region, len(region), 0); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return d, make([]byte, len(region))
}

// TestReadRegionDoesNotAllocate: a region read is one copy out of the
// payload segments (one clear, without payloads) into the caller's buffer —
// nothing per page.
func TestReadRegionDoesNotAllocate(t *testing.T) {
	for _, storeData := range []bool{true, false} {
		d, buf := writtenRegion(t, storeData)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.Read(0, buf, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("StoreData=%v: reading a %d-page region allocates %.0f objects, want 0",
				storeData, len(buf)/device.SectorSize, allocs)
		}
		if storeData && !bytes.Equal(buf, bytes.Repeat([]byte{0x3C}, len(buf))) {
			t.Error("region read back wrong bytes")
		}
	}
}

// TestWriteDoesNotAllocate: a region write programs page state with no
// payload and copies the bytes into the zone's segments, which Reset hands
// back to the pool the next write takes them from — so once the pool is warm
// nothing allocates, with payloads or without. (The race detector makes
// sync.Pool drop items at random, so the payload case is skipped under it.)
func TestWriteDoesNotAllocate(t *testing.T) {
	for _, storeData := range []bool{true, false} {
		if storeData && raceEnabled {
			continue
		}
		d, region := writtenRegion(t, storeData)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.Reset(0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Write(0, region, len(region), 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("StoreData=%v: resetting and writing a %d-page region allocates %.0f objects, want 0",
				storeData, len(region)/device.SectorSize, allocs)
		}
	}
}

// BenchmarkDeviceWrite writes one 256 KiB region, resetting the zone each
// time: the device's own cost per region write, without and with payload.
func BenchmarkDeviceWrite(b *testing.B) {
	for _, mode := range []struct {
		name      string
		storeData bool
	}{{"metadata", false}, {"payload", true}} {
		b.Run(mode.name, func(b *testing.B) {
			d, region := writtenRegion(b, mode.storeData)
			b.SetBytes(int64(len(region)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Reset(0, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Write(0, region, len(region), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceReadRegion reads one 256 KiB region, without and with
// payload.
func BenchmarkDeviceReadRegion(b *testing.B) {
	for _, mode := range []struct {
		name      string
		storeData bool
	}{{"metadata", false}, {"payload", true}} {
		b.Run(mode.name, func(b *testing.B) {
			d, buf := writtenRegion(b, mode.storeData)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Read(0, buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
