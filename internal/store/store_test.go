package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"znscache/internal/device"
	"znscache/internal/f2fs"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/ssd"
	"znscache/internal/stats"
	"znscache/internal/zns"
)

const testRegion = 8 * device.SectorSize // 32 KiB regions

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, DiesPerChan: 2, BlocksPerDie: 32,
		PagesPerBlock: 16, PageSize: device.SectorSize,
	}
}

func newSSD(t *testing.T) *ssd.SSD {
	t.Helper()
	d, err := ssd.New(ssd.Config{Geometry: testGeo(), Timing: flash.DefaultTiming(), OPRatio: 0.2, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newZNS(t *testing.T) *zns.Device {
	t.Helper()
	d, err := zns.New(zns.Config{
		Geometry: testGeo(), Timing: flash.DefaultTiming(),
		BlocksPerZone: 8, MaxOpenZones: 8, StoreData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testMetaLatency is the file case's per-block filesystem CPU.
const testMetaLatency = 7 * time.Microsecond

// blockCase is one device a BlockStore runs over.
type blockCase struct {
	label string // the store's metric label, as Build sets it
	dev   device.BlockDevice
	// liveBytes reports the host bytes the device currently maps.
	liveBytes func() int64
	// fsWA is the filesystem's host vs media bytes; nil on the raw SSD.
	fsWA *stats.WriteAmp
	// flushCost is what WriteSyncCost reports for a region flush that
	// trips no device GC.
	flushCost time.Duration
}

// forBlockCases runs fn once per device a BlockStore serves, each fresh: a
// regular SSD (Block-Cache) and a four-region file on the F2FS-like
// filesystem (File-Cache), checkpointing after every region's worth of
// writes.
func forBlockCases(t *testing.T, fn func(t *testing.T, tc blockCase)) {
	t.Run("block", func(t *testing.T) {
		dev := newSSD(t)
		fn(t, blockCase{label: "block", dev: dev,
			liveBytes: func() int64 { return dev.MappedSectors() * device.SectorSize }})
	})
	t.Run("file", func(t *testing.T) {
		fs, err := f2fs.Mount(newZNS(t), f2fs.Config{
			OPRatio: 0.25, CheckpointBytes: testRegion, MetaLatency: testMetaLatency,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("cache", 4*testRegion)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, blockCase{label: "file", dev: f,
			liveBytes: func() int64 { return fs.LiveBlocks() * f2fs.BlockSize },
			fsWA:      &fs.WA,
			flushCost: testMetaLatency * testRegion / device.SectorSize,
		})
	})
}

func TestBlockStoreRoundTrip(t *testing.T) {
	forBlockCases(t, func(t *testing.T, tc blockCase) {
		s, err := NewBlockStore(tc.dev, tc.label, testRegion, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(tc.dev.Size() / testRegion); s.NumRegions() != want || s.RegionSize() != testRegion {
			t.Fatalf("geometry: %d regions of %d, want %d of %d", s.NumRegions(), s.RegionSize(), want, testRegion)
		}
		want := bytes.Repeat([]byte{0x77}, testRegion)
		for i := range want {
			want[i] += byte(i / device.SectorSize)
		}
		if _, err := s.WriteRegion(0, 3, want); err != nil {
			t.Fatalf("WriteRegion: %v", err)
		}
		// The flush's synchronous share is reported once.
		if c := s.WriteSyncCost(); c != tc.flushCost {
			t.Fatalf("sync cost of a flush = %v, want %v", c, tc.flushCost)
		}
		if c := s.WriteSyncCost(); c != 0 {
			t.Fatalf("sync cost taken twice = %v, want 0", c)
		}
		got := make([]byte, 2*device.SectorSize)
		if _, err := s.ReadRegion(0, 3, got, len(got), device.SectorSize); err != nil {
			t.Fatalf("ReadRegion: %v", err)
		}
		if !bytes.Equal(got, want[device.SectorSize:3*device.SectorSize]) {
			t.Fatal("round-trip mismatch")
		}
	})
}

func TestBlockStoreBounds(t *testing.T) {
	forBlockCases(t, func(t *testing.T, tc blockCase) {
		s, _ := NewBlockStore(tc.dev, tc.label, testRegion, 2)
		if _, err := s.WriteRegion(0, 2, nil); !errors.Is(err, ErrRegion) {
			t.Fatalf("oob region err = %v", err)
		}
		if _, err := s.WriteRegion(0, -1, nil); !errors.Is(err, ErrRegion) {
			t.Fatalf("negative region err = %v", err)
		}
		if _, err := s.ReadRegion(0, 9, nil, device.SectorSize, 0); !errors.Is(err, ErrRegion) {
			t.Fatalf("oob region read err = %v", err)
		}
		if _, err := s.ReadRegion(0, 0, nil, device.SectorSize, testRegion); !errors.Is(err, ErrBounds) {
			t.Fatalf("oob offset err = %v", err)
		}
		if _, err := s.ReadRegion(0, 1, nil, testRegion, device.SectorSize); !errors.Is(err, ErrBounds) {
			t.Fatalf("overrun err = %v", err)
		}
		if _, err := NewBlockStore(tc.dev, tc.label, 1000, 0); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("unaligned region size err = %v", err)
		}
		if _, err := NewBlockStore(tc.dev, tc.label, testRegion, 10000); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("too many regions err = %v", err)
		}
	})
}

func TestBlockStoreOverwriteSameLBAs(t *testing.T) {
	// Overwriting a region must not consume new logical space: the FTL sees
	// an in-place overwrite and invalidates the old flash pages, the
	// filesystem remaps the file's blocks out of place.
	forBlockCases(t, func(t *testing.T, tc blockCase) {
		s, _ := NewBlockStore(tc.dev, tc.label, testRegion, 2)
		for i := 0; i < 10; i++ {
			if _, err := s.WriteRegion(0, 0, nil); err != nil {
				t.Fatalf("overwrite %d: %v", i, err)
			}
		}
		if got := tc.liveBytes(); got != testRegion {
			t.Fatalf("live bytes = %d, want %d", got, testRegion)
		}
		// Out-of-place updates and checkpoints cost the filesystem media
		// writes beyond the host's.
		if tc.fsWA != nil && tc.fsWA.Media() <= tc.fsWA.Host() {
			t.Fatalf("fs WA media %d not above host %d", tc.fsWA.Media(), tc.fsWA.Host())
		}
	})
}

func TestBlockStoreEvictIsFree(t *testing.T) {
	forBlockCases(t, func(t *testing.T, tc blockCase) {
		s, _ := NewBlockStore(tc.dev, tc.label, testRegion, 2)
		lat, err := s.EvictRegion(0, 0)
		if err != nil || lat != 0 {
			t.Fatalf("EvictRegion = (%v, %v), want free no-op", lat, err)
		}
	})
}

func TestZoneStoreRegionEqualsZone(t *testing.T) {
	dev := newZNS(t)
	s, err := NewZoneStore(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != dev.NumZones() {
		t.Fatalf("NumRegions = %d, want %d zones", s.NumRegions(), dev.NumZones())
	}
	if s.RegionSize() != dev.ZoneSize() {
		t.Fatalf("RegionSize = %d, want zone size %d", s.RegionSize(), dev.ZoneSize())
	}
}

func TestZoneStoreWriteResetCycle(t *testing.T) {
	dev := newZNS(t)
	s, _ := NewZoneStore(dev, 4)
	want := bytes.Repeat([]byte{0x42}, int(dev.ZoneSize()))
	if _, err := s.WriteRegion(0, 1, want); err != nil {
		t.Fatalf("WriteRegion: %v", err)
	}
	got := make([]byte, device.SectorSize)
	if _, err := s.ReadRegion(0, 1, got, len(got), 0); err != nil {
		t.Fatalf("ReadRegion: %v", err)
	}
	if !bytes.Equal(got, want[:device.SectorSize]) {
		t.Fatal("round-trip mismatch")
	}
	// Evict = reset; the zone must be writable from scratch again.
	if _, err := s.EvictRegion(0, 1); err != nil {
		t.Fatalf("EvictRegion: %v", err)
	}
	zi, _ := dev.ZoneInfo(1)
	if zi.State != zns.ZoneEmpty {
		t.Fatalf("zone state after evict = %v, want EMPTY", zi.State)
	}
	if _, err := s.WriteRegion(0, 1, want); err != nil {
		t.Fatalf("rewrite after evict: %v", err)
	}
	if err := fault.CheckZoneContract(dev); err != nil {
		t.Fatalf("zone contract violated after write/reset cycle: %v", err)
	}
}

func TestZoneStoreZeroWA(t *testing.T) {
	// The Zone-Cache invariant: flash programs == host sectors, always.
	dev := newZNS(t)
	s, _ := NewZoneStore(dev, 4)
	for round := 0; round < 3; round++ {
		for id := 0; id < 4; id++ {
			if round > 0 {
				if _, err := s.EvictRegion(0, id); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.WriteRegion(0, id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantPrograms := uint64(3 * 4 * int(dev.ZoneSize()/device.SectorSize))
	if got := dev.Array().Programs.Load(); got != wantPrograms {
		t.Fatalf("flash programs = %d, want %d (zero WA)", got, wantPrograms)
	}
	if err := fault.CheckZoneContract(dev); err != nil {
		t.Fatalf("zone contract violated after evict/rewrite churn: %v", err)
	}
}

func TestZoneStoreBounds(t *testing.T) {
	s, _ := NewZoneStore(newZNS(t), 2)
	if _, err := s.WriteRegion(0, 5, nil); !errors.Is(err, ErrRegion) {
		t.Fatalf("oob region err = %v", err)
	}
	if _, err := s.EvictRegion(0, -1); !errors.Is(err, ErrRegion) {
		t.Fatalf("negative region err = %v", err)
	}
	if _, err := NewZoneStore(newZNS(t), 100); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("too many regions err = %v", err)
	}
}
