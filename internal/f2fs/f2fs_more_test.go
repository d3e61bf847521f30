package f2fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/sim"
	"znscache/internal/zns"
)

func TestMultipleFilesIsolated(t *testing.T) {
	fs := mountTest(t, true)
	a, err := fs.Create("a", 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Create("b", 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	av := bytes.Repeat([]byte{0xAA}, BlockSize)
	bv := bytes.Repeat([]byte{0xBB}, BlockSize)
	a.WriteAt(0, av, BlockSize, 0)
	b.WriteAt(0, bv, BlockSize, 0)
	got := make([]byte, BlockSize)
	a.ReadAt(0, got, 0)
	if !bytes.Equal(got, av) {
		t.Fatal("file a corrupted by file b's write")
	}
	b.ReadAt(0, got, 0)
	if !bytes.Equal(got, bv) {
		t.Fatal("file b corrupted")
	}
}

func TestCreateAccountsAcrossFiles(t *testing.T) {
	fs := mountTest(t, false)
	half := alignBlocks(fs.UsableBytes() / 2)
	if _, err := fs.Create("a", half); err != nil {
		t.Fatal(err)
	}
	// A second file of more than the remainder must be rejected.
	if _, err := fs.Create("b", fs.UsableBytes()-half+BlockSize); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit across files err = %v", err)
	}
	if _, err := fs.Create("b", alignBlocks(fs.UsableBytes()-half)); err != nil {
		t.Fatalf("exact-fit second file: %v", err)
	}
}

func TestSyncWithoutDirtyNodesIsNoop(t *testing.T) {
	fs := mountTest(t, false)
	before := fs.WA.Media()
	if _, err := fs.Sync(0); err != nil {
		t.Fatal(err)
	}
	if fs.WA.Media() != before {
		t.Fatal("empty Sync wrote node blocks")
	}
}

func TestMetaOverheadShrinksUsable(t *testing.T) {
	plain, err := Mount(testDev(t, false), Config{OPRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Mount(testDev(t, false), Config{OPRatio: 0.2, MetaOverhead: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.UsableBytes() >= plain.UsableBytes() {
		t.Fatalf("MetaOverhead did not shrink usable: %d vs %d",
			heavy.UsableBytes(), plain.UsableBytes())
	}
}

func TestSequentialLargeWriteSpansSegments(t *testing.T) {
	// One write larger than a zone must stream across segments without
	// violating device write-pointer rules.
	fs := mountTest(t, false)
	zoneBytes := fs.dev.ZoneSize()
	f, err := fs.Create("big", 3*zoneBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(0, nil, int(2*zoneBytes), 0); err != nil {
		t.Fatalf("multi-segment write: %v", err)
	}
	if fs.LiveBlocks() != 2*zoneBytes/BlockSize {
		t.Fatalf("LiveBlocks = %d", fs.LiveBlocks())
	}
}

func TestCleanerVictimThresholdRespected(t *testing.T) {
	// With VictimMaxValid very low and plenty of free zones, the cleaner
	// must refuse expensive victims instead of thrashing.
	fs, err := Mount(testDev(t, false), Config{OPRatio: 0.4, VictimMaxValid: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	size := alignBlocks(fs.UsableBytes() / 2)
	f, _ := fs.Create("f", size)
	blocks := size / BlockSize
	rng := sim.NewRand(7)
	for i := int64(0); i < blocks*3; i++ {
		if _, err := f.WriteAt(0, nil, BlockSize, rng.Int63n(blocks)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	// Half-utilized FS with huge OP: cleaning may run on fully-dead
	// segments but must not migrate valid blocks of expensive ones.
	if fs.WA.Factor() > 1.2 {
		t.Fatalf("cleaner migrated heavily (WA %.2f) despite 1%% victim threshold", fs.WA.Factor())
	}
}

// TestConcurrentFilesSurviveCleaning: two goroutines each own a file on one
// small filesystem and write tagged generations to random blocks of it,
// reading the whole file back after every write. Every block must hold its
// owner's last generation while the cleaner, charged to whichever write
// trips it, migrates blocks of both files and of their node blocks.
func TestConcurrentFilesSurviveCleaning(t *testing.T) {
	dev, err := zns.New(zns.Config{ // 16 zones of 16 blocks
		Geometry: flash.Geometry{
			Channels: 1, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 8, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 2,
		MaxOpenZones:  4,
		StoreData:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, Config{OPRatio: 0.25, CheckpointBytes: 16 * BlockSize})
	if err != nil {
		t.Fatal(err)
	}
	size := alignBlocks(fs.UsableBytes() * 4 / 10)
	gens := make([][]uint64, 2) // last generation per block, 0 = never written
	var wg sync.WaitGroup
	for w := range gens {
		f, err := fs.Create(fmt.Sprintf("f%d", w), size)
		if err != nil {
			t.Fatal(err)
		}
		gens[w] = make([]uint64, size/BlockSize)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := churnFile(f, uint64(w), 3*size/BlockSize, gens[w]); err != nil {
				t.Errorf("file %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if fs.CleanRuns.Load() == 0 || fs.WA.Factor() <= 1 {
		t.Fatalf("test vacuous: %d clean runs, WA %.2f", fs.CleanRuns.Load(), fs.WA.Factor())
	}
	var written int64
	for _, g := range gens {
		for _, gen := range g {
			if gen > 0 {
				written++
			}
		}
	}
	if got := fs.LiveBlocks(); got != written {
		t.Fatalf("LiveBlocks = %d, want the %d blocks written", got, written)
	}
}

// churnFile makes writes tagged one-block writes to random blocks of f,
// recording each block's last generation in gen, and after every write
// checks the whole file reads back as tagged.
func churnFile(f *File, owner uint64, writes int64, gen []uint64) error {
	blocks := int64(len(gen))
	rng := sim.NewRand(owner + 1)
	block := make([]byte, BlockSize)
	buf := make([]byte, f.Size())
	for g := uint64(1); g <= uint64(writes); g++ {
		i := rng.Int63n(blocks)
		binary.LittleEndian.PutUint64(block, owner<<32|uint64(i))
		binary.LittleEndian.PutUint64(block[8:], g)
		if _, err := f.WriteAt(0, block, BlockSize, i*BlockSize); err != nil {
			return fmt.Errorf("write %d: %w", g, err)
		}
		gen[i] = g
		if _, err := f.ReadAt(0, buf, 0); err != nil {
			return fmt.Errorf("read-back after write %d: %w", g, err)
		}
		for j := int64(0); j < blocks; j++ {
			got := buf[j*BlockSize:]
			id, tag := binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:])
			want := owner<<32 | uint64(j)
			if gen[j] == 0 {
				want = 0
			}
			if id != want || tag != gen[j] {
				return fmt.Errorf("after write %d: block %d holds id %#x generation %d, want id %#x generation %d",
					g, j, id, tag, want, gen[j])
			}
		}
	}
	return nil
}

// BenchmarkFSWriteCleaning prices one-block random overwrites of a file
// filling 80% of a metadata-only filesystem, in steady-state cleaning: the
// file is overwritten five times before the timer starts.
func BenchmarkFSWriteCleaning(b *testing.B) {
	fs, err := Mount(testDev(b, false), Config{OPRatio: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	size := alignBlocks(fs.UsableBytes() * 8 / 10)
	f, err := fs.Create("cache", size)
	if err != nil {
		b.Fatal(err)
	}
	blocks := size / BlockSize
	rng := sim.NewRand(11)
	write := func() {
		if _, err := f.WriteAt(0, nil, BlockSize, rng.Int63n(blocks)*BlockSize); err != nil {
			b.Fatal(err)
		}
	}
	for i := int64(0); i < 5*blocks; i++ {
		write()
	}
	runs := fs.CleanRuns.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	if b.N >= int(blocks) && fs.CleanRuns.Load() == runs {
		b.Fatal("the cleaner did not run in the timed window")
	}
}

// TestBlockRefIs8Bytes pins the reverse map's record: a file number and a
// block index with the node bit, and no pointer, so the collector never
// scans the map.
func TestBlockRefIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(blockRef{}); n != 8 {
		t.Fatalf("blockRef is %d bytes, want 8", n)
	}
	rt := reflect.TypeOf(blockRef{})
	for i := 0; i < rt.NumField(); i++ {
		if k := rt.Field(i).Type.Kind(); k > reflect.Complex128 {
			t.Fatalf("blockRef.%s is a %v: the reverse map would hold pointers", rt.Field(i).Name, k)
		}
	}
}

// hugeZoned is a device of zones zones of zoneSize bytes that only reports
// its geometry.
type hugeZoned struct {
	zns.Zoned
	zones    int
	zoneSize int64
}

func (d hugeZoned) NumZones() int   { return d.zones }
func (d hugeZoned) ZoneSize() int64 { return d.zoneSize }

// TestMountRefusesBlocksBeyondInt32: a device with one block more than a
// 32-bit block map addresses is refused before any map is allocated.
func TestMountRefusesBlocksBeyondInt32(t *testing.T) {
	const zoneBlocks = 1 << 10
	dev := hugeZoned{zones: (math.MaxInt32 + 1) / zoneBlocks, zoneSize: zoneBlocks * BlockSize}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Mount(dev, Config{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Mount of %d blocks: %v, want ErrBadConfig", int64(dev.zones)*zoneBlocks, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("Mount allocated %d bytes before refusing", n)
	}
}
