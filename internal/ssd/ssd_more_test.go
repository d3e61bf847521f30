package ssd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/sim"
)

func TestLastWriteStallConsumedOnce(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	s, _ := New(cfg)
	// Churn until a GC stall happens.
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(5)
	var stall time.Duration
	for i := int64(0); i < sectors*4; i++ {
		s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize)
		if st := s.TakeLastWriteStall(); st > 0 {
			stall = st
			break
		}
	}
	if stall == 0 {
		t.Fatal("no GC stall observed")
	}
	if s.TakeLastWriteStall() != 0 {
		t.Fatal("stall not cleared after Take")
	}
}

func TestWritesAfterHeavyChurnStillReadable(t *testing.T) {
	// End-to-end FTL sanity at high utilization: the mapping stays a
	// bijection and the device never loses the latest write.
	cfg := testConfig()
	cfg.StoreData = false
	s, _ := New(cfg)
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(31)
	for i := int64(0); i < sectors*8; i++ {
		s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize)
	}
	if err := checkMapping(s); err != nil {
		t.Fatal(err)
	}
	if s.MappedSectors() == 0 {
		t.Fatal("no live mappings after churn")
	}
}

func TestReservePoolMaintained(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	s, _ := New(cfg)
	if len(s.reserveBlks) != s.reserveTarget {
		t.Fatalf("initial reserve %d, want %d", len(s.reserveBlks), s.reserveTarget)
	}
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(3)
	for i := int64(0); i < sectors*6; i++ {
		s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize)
	}
	if s.GCRuns.Load() == 0 {
		t.Fatal("churn never triggered GC")
	}
	s.mu.Lock()
	got := len(s.reserveBlks)
	s.mu.Unlock()
	if got != s.reserveTarget {
		t.Fatalf("reserve pool %d after GC churn, want %d (refilled)", got, s.reserveTarget)
	}
}

func TestGCStallsVisibleInHistogram(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	s, _ := New(cfg)
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(13)
	for i := int64(0); i < sectors*5; i++ {
		s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize)
	}
	if s.GCStalls.Count() != uint64(s.GCRuns.Load()) {
		t.Fatalf("stall samples %d != GC runs %d", s.GCStalls.Count(), s.GCRuns.Load())
	}
}

// TestConcurrentRangesSurviveGC: four goroutines share one small-OP SSD, each
// owning a disjoint quarter of its LBAs. Each writes tagged generations to
// random sectors of its quarter and reads the whole quarter back after every
// write; every sector must hold its owner's last generation while foreground
// GC, tripped by any of the four, migrates pages of all of them. Afterwards
// l2p and p2l must be inverse maps over the live pages.
func TestConcurrentRangesSurviveGC(t *testing.T) {
	const owners = 4
	cfg := testConfig()
	cfg.Geometry = flash.Geometry{ // 32 blocks of 8 pages: GC starts within a few writes per sector
		Channels: 1, DiesPerChan: 2, BlocksPerDie: 16,
		PagesPerBlock: 8, PageSize: device.SectorSize,
	}
	cfg.OPRatio = 0.07
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := s.Size() / device.SectorSize / owners
	gens := make([][]uint64, owners) // last generation per sector, 0 = never written
	homes := make([][]int32, owners) // physical page seen right after that write
	var wg sync.WaitGroup
	for w := range gens {
		gens[w], homes[w] = make([]uint64, span), make([]int32, span)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := churnRange(s, int64(w)*span, 3*span, uint64(w+1), gens[w], homes[w]); err != nil {
				t.Errorf("owner %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.GCRuns.Load() == 0 {
		t.Fatal("test vacuous: foreground GC never ran")
	}
	var written int64
	for w := range gens {
		migrated := 0
		for i, g := range gens[w] {
			if g == 0 {
				continue
			}
			written++
			if s.l2p[int64(w)*span+int64(i)] != homes[w][i] {
				migrated++
			}
		}
		if migrated == 0 {
			t.Errorf("GC migrated no page of owner %d's range", w)
		}
	}
	if got := s.MappedSectors(); got != written {
		t.Fatalf("MappedSectors = %d, want the %d sectors written", got, written)
	}
	if err := checkMapping(s); err != nil {
		t.Fatalf("mapping after GC: %v", err)
	}
}

// churnRange makes writes tagged one-sector writes to random sectors of the
// span sectors starting at LBA first, recording each sector's last
// generation in gen and its physical page in home, and after every write
// checks the whole span reads back as tagged.
func churnRange(s *SSD, first, writes int64, seed uint64, gen []uint64, home []int32) error {
	span := int64(len(gen))
	rng := sim.NewRand(seed)
	page := make([]byte, device.SectorSize)
	buf := make([]byte, span*device.SectorSize)
	for g := uint64(1); g <= uint64(writes); g++ {
		i := rng.Int63n(span)
		binary.LittleEndian.PutUint64(page, uint64(first+i))
		binary.LittleEndian.PutUint64(page[8:], g)
		if _, err := s.WriteAt(0, page, len(page), (first+i)*device.SectorSize); err != nil {
			return fmt.Errorf("write %d: %w", g, err)
		}
		gen[i] = g
		s.mu.Lock()
		home[i] = s.l2p[first+i]
		s.mu.Unlock()
		if _, err := s.ReadAt(0, buf, first*device.SectorSize); err != nil {
			return fmt.Errorf("read-back after write %d: %w", g, err)
		}
		for j := int64(0); j < span; j++ {
			got := buf[j*device.SectorSize:]
			lpn, tag := binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:])
			want := uint64(first + j)
			if gen[j] == 0 {
				want = 0
			}
			if lpn != want || tag != gen[j] {
				return fmt.Errorf("after write %d: sector %d holds lba %d generation %d, want lba %d generation %d",
					g, first+j, lpn, tag, want, gen[j])
			}
		}
	}
	return nil
}

// BenchmarkSSDWriteGC prices one-sector random overwrites of a metadata-only
// SSD in steady-state foreground GC: the device is overwritten four times
// before the timer starts.
func BenchmarkSSDWriteGC(b *testing.B) {
	cfg := testConfig()
	cfg.StoreData = false
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sectors := s.Size() / device.SectorSize
	rng := sim.NewRand(9)
	write := func() {
		if _, err := s.WriteAt(0, nil, device.SectorSize, rng.Int63n(sectors)*device.SectorSize); err != nil {
			b.Fatal(err)
		}
	}
	for i := int64(0); i < 4*sectors; i++ {
		write()
	}
	runs := s.GCRuns.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	if b.N >= int(sectors) && s.GCRuns.Load() == runs {
		b.Fatal("no GC ran in the timed window")
	}
}

// TestNewRefusesPagesBeyondInt32: a geometry with one page more than the
// 32-bit page maps address is refused before the flash array or any map is
// allocated.
func TestNewRefusesPagesBeyondInt32(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Channels, cfg.Geometry.DiesPerChan = 1, 1
	cfg.Geometry.PagesPerBlock = 1 << 8
	cfg.Geometry.BlocksPerDie = (math.MaxInt32 + 1) / cfg.Geometry.PagesPerBlock
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(cfg)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("New with %d pages: %v, want ErrBadConfig", cfg.Geometry.Pages(), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("New allocated %d bytes before refusing", n)
	}
}
