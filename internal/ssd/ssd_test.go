package ssd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/sim"
)

func testConfig() Config {
	return Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:    flash.DefaultTiming(),
		OPRatio:   0.20,
		StoreData: true,
	}
}

func newTestSSD(t *testing.T) *SSD {
	t.Helper()
	s, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.PageSize = 512
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mismatched page size: err = %v, want ErrBadConfig", err)
	}
	cfg = testConfig()
	cfg.OPRatio = 1.5
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("OP 1.5: err = %v, want ErrBadConfig", err)
	}
	cfg = testConfig()
	cfg.Geometry.BlocksPerDie = 1 // no room for open blocks + GC reserve
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("tiny geometry: err = %v, want ErrBadConfig", err)
	}
}

func TestExportedSizeReflectsOP(t *testing.T) {
	s := newTestSSD(t)
	raw := testConfig().Geometry.TotalBytes()
	if s.Size() >= raw {
		t.Fatalf("exported %d not below raw %d", s.Size(), raw)
	}
	if s.Size()%device.SectorSize != 0 {
		t.Fatal("exported size not sector aligned")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestSSD(t)
	want := bytes.Repeat([]byte{0x5A}, 2*device.SectorSize)
	if _, err := s.WriteAt(0, want, len(want), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := s.ReadAt(0, got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round-trip mismatch")
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	s := newTestSSD(t)
	a := bytes.Repeat([]byte{1}, device.SectorSize)
	b := bytes.Repeat([]byte{2}, device.SectorSize)
	s.WriteAt(0, a, len(a), 4096)
	s.WriteAt(0, b, len(b), 4096)
	got := make([]byte, device.SectorSize)
	s.ReadAt(0, got, 4096)
	if !bytes.Equal(got, b) {
		t.Fatal("overwrite not visible")
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	s := newTestSSD(t)
	got := bytes.Repeat([]byte{0xFF}, device.SectorSize)
	if _, err := s.ReadAt(0, got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, make([]byte, device.SectorSize)) {
		t.Fatal("unwritten sector not zero-filled")
	}
}

func TestAlignmentAndRangeErrors(t *testing.T) {
	s := newTestSSD(t)
	buf := make([]byte, device.SectorSize)
	if _, err := s.ReadAt(0, buf, 123); !errors.Is(err, device.ErrAlignment) {
		t.Fatalf("misaligned read err = %v", err)
	}
	if _, err := s.WriteAt(0, nil, device.SectorSize, s.Size()); !errors.Is(err, device.ErrOutOfRange) {
		t.Fatalf("out-of-range write err = %v", err)
	}
	if _, err := s.WriteAt(0, nil, device.SectorSize, -device.SectorSize); !errors.Is(err, device.ErrOutOfRange) {
		t.Fatalf("negative write err = %v", err)
	}
}

func TestMetadataOnlyWrite(t *testing.T) {
	s := newTestSSD(t)
	if _, err := s.WriteAt(0, nil, 4*device.SectorSize, 0); err != nil {
		t.Fatalf("nil-data WriteAt: %v", err)
	}
	if s.MappedSectors() != 4 {
		t.Fatalf("MappedSectors = %d, want 4", s.MappedSectors())
	}
}

func TestSequentialFillNoGC(t *testing.T) {
	// Writing the device once, sequentially, must not trigger GC: there is
	// nothing to collect.
	s := newTestSSD(t)
	sectors := s.Size() / device.SectorSize
	for i := int64(0); i < sectors; i++ {
		if _, err := s.WriteAt(0, nil, device.SectorSize, i*device.SectorSize); err != nil {
			t.Fatalf("fill write %d: %v", i, err)
		}
	}
	if s.GCRuns.Load() != 0 {
		t.Fatalf("sequential fill triggered %d GC runs", s.GCRuns.Load())
	}
	if f := s.WA.Factor(); f != 1.0 {
		t.Fatalf("sequential-fill WAF = %v, want 1.0", f)
	}
}

func TestRandomOverwriteTriggersGCAndWA(t *testing.T) {
	// Overwrite the full device several times over: GC must run and WA
	// must exceed 1 — the paper's core complaint about regular SSDs under
	// caching workloads.
	s := newTestSSD(t)
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(7)
	for i := int64(0); i < sectors*4; i++ {
		lpn := rng.Int63n(sectors)
		if _, err := s.WriteAt(0, nil, device.SectorSize, lpn*device.SectorSize); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if s.GCRuns.Load() == 0 {
		t.Fatal("random overwrites never triggered GC")
	}
	if f := s.WA.Factor(); f <= 1.0 {
		t.Fatalf("WAF = %v, want > 1 under random overwrite", f)
	}
	if s.GCStalls.Count() == 0 {
		t.Fatal("no GC stalls recorded")
	}
	// GC stalls are orders of magnitude above a single program: tail source.
	if s.GCStalls.Max() < s.Array().Timing().EraseBlock {
		t.Fatalf("max GC stall %v below one erase %v", s.GCStalls.Max(), s.Array().Timing().EraseBlock)
	}
}

func TestGCPreservesData(t *testing.T) {
	// Fill a small logical window with known data, then hammer the rest of
	// the device to force GC over the victim blocks; the window must
	// survive migrations intact.
	s := newTestSSD(t)
	const window = 16
	want := make([][]byte, window)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, device.SectorSize)
		if _, err := s.WriteAt(0, want[i], device.SectorSize, int64(i)*device.SectorSize); err != nil {
			t.Fatal(err)
		}
	}
	sectors := s.Size() / device.SectorSize
	for round := 0; round < 6; round++ {
		for i := int64(window); i < sectors; i++ {
			if _, err := s.WriteAt(0, nil, device.SectorSize, i*device.SectorSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.GCRuns.Load() == 0 {
		t.Fatal("workload failed to trigger GC; test is vacuous")
	}
	got := make([]byte, device.SectorSize)
	for i := range want {
		if _, err := s.ReadAt(0, got, int64(i)*device.SectorSize); err != nil {
			t.Fatalf("read window %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("sector %d corrupted by GC", i)
		}
	}
}

func TestHigherOPLowersWA(t *testing.T) {
	// Table 1's mechanism: more OP → fewer, cheaper collections → lower WA.
	waf := func(op float64) float64 {
		cfg := testConfig()
		cfg.OPRatio = op
		cfg.StoreData = false
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(op=%v): %v", op, err)
		}
		sectors := s.Size() / device.SectorSize
		rng := sim.NewRand(3)
		for i := int64(0); i < sectors*6; i++ {
			s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize)
		}
		return s.WA.Factor()
	}
	low, high := waf(0.10), waf(0.30)
	if high >= low {
		t.Fatalf("WAF(op=30%%)=%v not below WAF(op=10%%)=%v", high, low)
	}
}

func TestMappedSectorsNeverExceedsExported(t *testing.T) {
	if err := quick.Check(func(writes []uint16) bool {
		cfg := testConfig()
		cfg.StoreData = false
		s, err := New(cfg)
		if err != nil {
			return false
		}
		sectors := s.Size() / device.SectorSize
		for _, w := range writes {
			off := (int64(w) % sectors) * device.SectorSize
			if _, err := s.WriteAt(0, nil, device.SectorSize, off); err != nil {
				return false
			}
		}
		return s.MappedSectors() <= sectors
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLatencyPositive(t *testing.T) {
	s := newTestSSD(t)
	lat, err := s.WriteAt(0, nil, device.SectorSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("write latency %v, want > 0", lat)
	}
	buf := make([]byte, device.SectorSize)
	rlat, err := s.ReadAt(lat, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rlat <= 0 {
		t.Fatalf("read latency %v, want > 0", rlat)
	}
	if rlat >= lat {
		t.Fatalf("read latency %v not below write latency %v", rlat, lat)
	}
}

func TestStripedWriteFasterThanSerial(t *testing.T) {
	// An 8-sector write stripes across dies; it must complete in well under
	// 8 sequential program times.
	s := newTestSSD(t)
	tm := s.Array().Timing()
	lat, err := s.WriteAt(0, nil, 8*device.SectorSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := 8 * (tm.ProgPage + tm.Transfer)
	if lat >= serial {
		t.Fatalf("striped write latency %v not below serial %v", lat, serial)
	}
}
