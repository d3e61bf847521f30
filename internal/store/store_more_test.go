package store

import (
	"errors"
	"testing"

	"znscache/internal/device"
)

func TestBlockStoreScratchReads(t *testing.T) {
	// nil destination: a metadata-only read through the reusable scratch.
	forBlockCases(t, func(t *testing.T, tc blockCase) {
		s, _ := NewBlockStore(tc.dev, tc.label, testRegion, 2)
		s.WriteRegion(0, 1, nil)
		if _, err := s.ReadRegion(0, 1, nil, testRegion, 0); err != nil {
			t.Fatalf("scratch read: %v", err)
		}
		// Second scratch read reuses the buffer (no growth path).
		if _, err := s.ReadRegion(0, 1, nil, device.SectorSize, 0); err != nil {
			t.Fatalf("second scratch read: %v", err)
		}
	})
}

func TestBlockStoreSyncCostReportsGCStall(t *testing.T) {
	dev := newSSD(t)
	s, _ := NewBlockStore(dev, "block", testRegion, 0)
	// Before any GC, sync cost is zero.
	if c := s.WriteSyncCost(); c != 0 {
		t.Fatalf("idle sync cost = %v", c)
	}
	// Churn all regions repeatedly to trigger device GC; eventually a
	// write reports a nonzero stall.
	var sawStall bool
	for round := 0; round < 40 && !sawStall; round++ {
		for id := 0; id < s.NumRegions(); id++ {
			if _, err := s.WriteRegion(0, id, nil); err != nil {
				t.Fatal(err)
			}
			if s.WriteSyncCost() > 0 {
				sawStall = true
			}
		}
	}
	if !sawStall {
		t.Fatal("no GC stall surfaced through WriteSyncCost")
	}
}

func TestZoneStoreScratchAndBounds(t *testing.T) {
	dev := newZNS(t)
	s, _ := NewZoneStore(dev, 3)
	s.WriteRegion(0, 0, nil)
	if _, err := s.ReadRegion(0, 0, nil, device.SectorSize, 0); err != nil {
		t.Fatalf("scratch read: %v", err)
	}
	if _, err := s.ReadRegion(0, 0, nil, device.SectorSize, dev.ZoneSize()); !errors.Is(err, ErrBounds) {
		t.Fatalf("overrun err = %v", err)
	}
	if _, err := s.ReadRegion(0, -1, nil, device.SectorSize, 0); !errors.Is(err, ErrRegion) {
		t.Fatalf("negative region err = %v", err)
	}
	if _, err := NewZoneStore(dev, -2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative count err = %v", err)
	}
}
