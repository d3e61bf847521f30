package f2fs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/sim"
	"znscache/internal/zns"
)

// testDev builds a small ZNS device: 32 zones × 16 blocks × 4 KiB = 2 MiB
// zones... (4 blocks/zone, 64 KiB zones, 32 zones, 2 MiB total).
func testDev(t testing.TB, store bool) *zns.Device {
	t.Helper()
	d, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 32,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4,
		MaxOpenZones:  8,
		StoreData:     store,
	})
	if err != nil {
		t.Fatalf("zns.New: %v", err)
	}
	return d
}

func mountTest(t *testing.T, store bool) *FS {
	t.Helper()
	fs, err := Mount(testDev(t, store), Config{OPRatio: 0.25})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs
}

func alignBlocks(n int64) int64 { return n / BlockSize * BlockSize }

func TestMountRejectsBadOP(t *testing.T) {
	if _, err := Mount(testDev(t, false), Config{OPRatio: 1.2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("OP 1.2 err = %v", err)
	}
}

func TestUsableBelowRaw(t *testing.T) {
	fs := mountTest(t, false)
	if fs.UsableBytes() >= fs.dev.Size() {
		t.Fatalf("usable %d not below raw %d — OP reserve missing", fs.UsableBytes(), fs.dev.Size())
	}
}

func TestCreateOpenSemantics(t *testing.T) {
	fs := mountTest(t, false)
	if _, err := fs.Create("a", 123); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned create err = %v", err)
	}
	f, err := fs.Create("a", 16*BlockSize)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if f.Size() != 16*BlockSize {
		t.Fatalf("Size = %d", f.Size())
	}
	if _, err := fs.Create("a", 16*BlockSize); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := fs.Open("a"); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := fs.Open("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing open err = %v", err)
	}
}

func TestCreateOvercommitRejected(t *testing.T) {
	fs := mountTest(t, false)
	if _, err := fs.Create("big", fs.UsableBytes()+BlockSize); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := mountTest(t, true)
	f, _ := fs.Create("f", 32*BlockSize)
	want := bytes.Repeat([]byte{0xAA}, 3*BlockSize)
	if _, err := f.WriteAt(0, want, len(want), 4*BlockSize); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(0, got, 4*BlockSize); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round-trip mismatch")
	}
}

func TestHolesReadZero(t *testing.T) {
	fs := mountTest(t, true)
	f, _ := fs.Create("f", 8*BlockSize)
	got := bytes.Repeat([]byte{1}, BlockSize)
	if _, err := f.ReadAt(0, got, 0); err != nil {
		t.Fatalf("ReadAt hole: %v", err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("hole not zero")
	}
}

func TestEOFAndAlignmentErrors(t *testing.T) {
	fs := mountTest(t, false)
	f, _ := fs.Create("f", 8*BlockSize)
	if _, err := f.WriteAt(0, nil, BlockSize, 8*BlockSize); !errors.Is(err, ErrBeyondEOF) {
		t.Fatalf("EOF write err = %v", err)
	}
	if _, err := f.ReadAt(0, make([]byte, 100), 0); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned read err = %v", err)
	}
}

func TestOverwriteVisible(t *testing.T) {
	fs := mountTest(t, true)
	f, _ := fs.Create("f", 8*BlockSize)
	a := bytes.Repeat([]byte{1}, BlockSize)
	b := bytes.Repeat([]byte{2}, BlockSize)
	f.WriteAt(0, a, BlockSize, 0)
	f.WriteAt(0, b, BlockSize, 0)
	got := make([]byte, BlockSize)
	f.ReadAt(0, got, 0)
	if !bytes.Equal(got, b) {
		t.Fatal("overwrite not visible")
	}
	if fs.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1 (overwrite reuses slot)", fs.LiveBlocks())
	}
}

func TestCheckpointWritesNodeBlocks(t *testing.T) {
	fs := mountTest(t, false)
	f, _ := fs.Create("f", 8*BlockSize)
	f.WriteAt(0, nil, BlockSize, 0)
	if _, err := fs.Sync(0); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if fs.Checkpoints.Load() != 1 {
		t.Fatalf("Checkpoints = %d", fs.Checkpoints.Load())
	}
	// Media bytes must exceed host bytes: the node block was also written.
	if fs.WA.Media() <= fs.WA.Host() {
		t.Fatalf("media %d not above host %d after checkpoint", fs.WA.Media(), fs.WA.Host())
	}
}

// TestCheckpointPlacementDeterministic: a checkpoint places dirty node blocks
// of several files in the same node-log blocks on every fresh run — replay
// determinism must not hang on map iteration order.
func TestCheckpointPlacementDeterministic(t *testing.T) {
	const nodeSpan = PointersPerNode * BlockSize
	placement := func() string {
		// 256 zones of 64 KiB: room for two files of three node blocks each.
		dev, err := zns.New(zns.Config{
			Geometry: flash.Geometry{
				Channels: 2, DiesPerChan: 2, BlocksPerDie: 256,
				PagesPerBlock: 16, PageSize: device.SectorSize,
			},
			Timing:        flash.DefaultTiming(),
			BlocksPerZone: 4,
			MaxOpenZones:  8,
		})
		if err != nil {
			t.Fatalf("zns.New: %v", err)
		}
		fs, err := Mount(dev, Config{OPRatio: 0.25})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		var files []*File
		for _, name := range []string{"b", "a"} {
			f, err := fs.Create(name, 3*nodeSpan)
			if err != nil {
				t.Fatalf("Create(%s): %v", name, err)
			}
			files = append(files, f)
		}
		// One block under every node block of both files: six dirty nodes.
		for node := int64(2); node >= 0; node-- {
			for _, f := range files {
				if _, err := f.WriteAt(0, nil, BlockSize, node*nodeSpan); err != nil {
					t.Fatalf("WriteAt: %v", err)
				}
			}
		}
		if _, err := fs.Sync(0); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		return fmt.Sprint(files[0].nodeLive, files[1].nodeLive)
	}
	first := placement()
	for run := 1; run < 20; run++ {
		if got := placement(); got != first {
			t.Fatalf("run %d placed node blocks %s, run 0 placed %s", run, got, first)
		}
	}
}

func TestOverwriteChurnTriggersCleaningAndWA(t *testing.T) {
	// Fill a file close to usable capacity, then overwrite it repeatedly:
	// the cleaner must run, reclaim zones, and WA must exceed 1 — the
	// File-Cache behaviour in Table 1.
	fs := mountTest(t, false)
	size := alignBlocks(fs.UsableBytes() * 8 / 10)
	f, err := fs.Create("cache", size)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	blocks := size / BlockSize
	rng := sim.NewRand(11)
	now := time.Duration(0)
	for i := int64(0); i < blocks*5; i++ {
		off := rng.Int63n(blocks) * BlockSize
		lat, err := f.WriteAt(now, nil, BlockSize, off)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now += lat
	}
	if fs.CleanRuns.Load() == 0 {
		t.Fatal("cleaner never ran under overwrite churn")
	}
	if wa := fs.WA.Factor(); wa <= 1.0 {
		t.Fatalf("WA factor = %v, want > 1", wa)
	}
	if fs.FreeZones() == 0 {
		t.Fatal("cleaner failed to keep free zones available")
	}
}

func TestCleanerPreservesData(t *testing.T) {
	// Write distinctive content, churn the rest of the file to force
	// cleaning, then verify the content survived block migration.
	fs := mountTest(t, true)
	size := alignBlocks(fs.UsableBytes() * 8 / 10)
	f, err := fs.Create("cache", size)
	if err != nil {
		t.Fatal(err)
	}
	blocks := size / BlockSize

	const keep = 4
	want := make([][]byte, keep)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(0x10 + i)}, BlockSize)
		if _, err := f.WriteAt(0, want[i], BlockSize, int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRand(5)
	for i := int64(0); i < blocks*6; i++ {
		off := (keep + rng.Int63n(blocks-keep)) * BlockSize
		if _, err := f.WriteAt(0, nil, BlockSize, off); err != nil {
			t.Fatalf("churn write: %v", err)
		}
	}
	if fs.CleanRuns.Load() == 0 {
		t.Fatal("test vacuous: cleaner never ran")
	}
	got := make([]byte, BlockSize)
	for i := range want {
		if _, err := f.ReadAt(0, got, int64(i)*BlockSize); err != nil {
			t.Fatalf("read back %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("block %d corrupted by cleaner", i)
		}
	}
}

func TestHigherOPReducesWA(t *testing.T) {
	run := func(op float64) float64 {
		fs, err := Mount(testDev(t, false), Config{OPRatio: op})
		if err != nil {
			t.Fatalf("Mount(op=%v): %v", op, err)
		}
		size := alignBlocks(fs.UsableBytes() * 9 / 10)
		f, err := fs.Create("cache", size)
		if err != nil {
			t.Fatal(err)
		}
		blocks := size / BlockSize
		rng := sim.NewRand(13)
		for i := int64(0); i < blocks*6; i++ {
			if _, err := f.WriteAt(0, nil, BlockSize, rng.Int63n(blocks)*BlockSize); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		return fs.WA.Factor()
	}
	low, high := run(0.15), run(0.40)
	if high >= low {
		t.Fatalf("WA(op=40%%)=%v not below WA(op=15%%)=%v", high, low)
	}
}

func TestCleaningStallsBounded(t *testing.T) {
	// The incremental cleaner spreads work: the common-case stall must be
	// far below draining a whole zone at once.
	fs, err := Mount(testDev(t, false), Config{OPRatio: 0.25, CleanQuantumBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	size := alignBlocks(fs.UsableBytes() * 8 / 10)
	f, _ := fs.Create("cache", size)
	blocks := size / BlockSize
	rng := sim.NewRand(17)
	now := time.Duration(0)
	for i := int64(0); i < blocks*5; i++ {
		lat, err := f.WriteAt(now, nil, BlockSize, rng.Int63n(blocks)*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		now += lat
	}
	if fs.CleanStalls.Count() == 0 {
		t.Fatal("no cleaning stalls recorded; test vacuous")
	}
	tm := flash.DefaultTiming()
	wholeZone := time.Duration(16) * (tm.ReadPage + tm.ProgPage) // 16 blocks/zone worth
	if p50 := fs.CleanStalls.Percentile(0.5); p50 >= wholeZone {
		t.Fatalf("median clean stall %v not below whole-zone drain %v", p50, wholeZone)
	}
}

func TestWriteLatencyIncludesMetaCost(t *testing.T) {
	fs := mountTest(t, false)
	f, _ := fs.Create("f", 8*BlockSize)
	lat, err := f.WriteAt(0, nil, BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 2*time.Microsecond {
		t.Fatalf("latency %v below metadata cost", lat)
	}
}
