package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"znscache/internal/device"
	"znscache/internal/flash"
)

// sectors renders a sector count as bytes.
func sectors(n int) int { return n * device.SectorSize }

// readSectors reads n sectors at LBA lba.
func readSectors(t *testing.T, s *SSD, lba, n int) []byte {
	t.Helper()
	got := make([]byte, sectors(n))
	if _, err := s.ReadAt(0, got, int64(sectors(lba))); err != nil {
		t.Fatalf("read %d sectors at LBA %d: %v", n, lba, err)
	}
	return got
}

// checkMapping verifies the FTL's two maps are inverse bijections over the
// live pages: every mapped LBA's page maps back to it and is valid in the
// array, and no page claims an LBA that does not point at it.
func checkMapping(s *SSD) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mapped := 0
	for lpn, ppn := range s.l2p {
		if ppn == unmapped {
			continue
		}
		mapped++
		if s.p2l[ppn] != int32(lpn) {
			return fmt.Errorf("lpn %d -> ppn %d -> lpn %d", lpn, ppn, s.p2l[ppn])
		}
		if st, _ := s.array.State(s.addrOf(ppn)); st != flash.PageValid {
			return fmt.Errorf("lpn %d maps to ppn %d in state %d, want valid", lpn, ppn, st)
		}
	}
	owned := 0
	for ppn, lpn := range s.p2l {
		if lpn == unmapped {
			continue
		}
		owned++
		if s.l2p[lpn] != int32(ppn) {
			return fmt.Errorf("ppn %d claims lpn %d, which maps to ppn %d", ppn, lpn, s.l2p[lpn])
		}
	}
	if owned != mapped {
		return fmt.Errorf("%d pages claim an LBA, %d LBAs are mapped", owned, mapped)
	}
	return nil
}

// TestPayloadCrossesSegments writes a run that starts mid-segment and spans
// two 256 KiB segment boundaries, and reads it back with unwritten sectors
// on both sides.
func TestPayloadCrossesSegments(t *testing.T) {
	s := newTestSSD(t)
	want := make([]byte, sectors(192))
	run := bytes.Repeat([]byte{0x5A}, sectors(100))
	for i := range run {
		run[i] += byte(i / device.SectorSize)
	}
	copy(want[sectors(30):], run)
	if _, err := s.WriteAt(0, run, len(run), int64(sectors(30))); err != nil {
		t.Fatal(err)
	}
	if got := readSectors(t, s, 0, 192); !bytes.Equal(got, want) {
		t.Fatal("segment-crossing run read back wrong bytes")
	}
}

// TestPayloadRecycledSegmentReadsZerosWhereUnmapped: a segment released by
// a metadata-only write over it and taken back by a one-sector write into
// a segment never written keeps stale bytes past that write; the sectors
// around it are unmapped and must still read as zeros, and a metadata-only
// write reads as zeros too.
func TestPayloadRecycledSegmentReadsZerosWhereUnmapped(t *testing.T) {
	s := newTestSSD(t)
	stale := bytes.Repeat([]byte{0xEE}, sectors(64))
	if _, err := s.WriteAt(0, stale, len(stale), int64(sectors(64))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(0, nil, sectors(64), int64(sectors(64))); err != nil {
		t.Fatal(err)
	}
	if got := readSectors(t, s, 64, 64); !bytes.Equal(got, make([]byte, sectors(64))) {
		t.Fatal("metadata-only write over a written segment did not read back as zeros")
	}
	one := bytes.Repeat([]byte{0xAB}, sectors(1))
	if _, err := s.WriteAt(0, one, len(one), int64(sectors(134))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(0, nil, sectors(3), int64(sectors(135))); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, sectors(64))
	copy(want[sectors(6):], one)
	if got := readSectors(t, s, 128, 64); !bytes.Equal(got, want) {
		t.Fatal("recycled segment shows stale bytes where nothing with payload was written")
	}
}

// TestPayloadRecycledSegmentZerosMetadataSectors: a metadata-only write over
// a whole segment releases it, a metadata-only write maps the next segment,
// and a one-sector payload write there takes the released segment. The
// sectors the metadata-only write mapped must read as zeros, not as the
// released segment's stale bytes.
func TestPayloadRecycledSegmentZerosMetadataSectors(t *testing.T) {
	s := newTestSSD(t)
	stale := bytes.Repeat([]byte{0xEE}, sectors(64))
	if _, err := s.WriteAt(0, stale, len(stale), int64(sectors(64))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(0, nil, sectors(64), int64(sectors(64))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(0, nil, sectors(64), int64(sectors(128))); err != nil {
		t.Fatal(err)
	}
	one := bytes.Repeat([]byte{0xAB}, sectors(1))
	if _, err := s.WriteAt(0, one, len(one), int64(sectors(128))); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, sectors(64))
	copy(want, one)
	if got := readSectors(t, s, 128, 64); !bytes.Equal(got, want) {
		n := 0
		for i := range got {
			if got[i] != want[i] {
				n++
			}
		}
		t.Fatalf("%d bytes read stale where a metadata-only write mapped zeros", n)
	}
}

// TestPayloadReadDetectsBrokenMapping: payload is kept by LBA, so a wrong
// l2p entry no longer shows as wrong bytes. ReadAt checks each mapped sector
// against p2l instead.
func TestPayloadReadDetectsBrokenMapping(t *testing.T) {
	s := newTestSSD(t)
	if _, err := s.WriteAt(0, nil, sectors(2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(0, make([]byte, sectors(2)), 0); err != nil {
		t.Fatalf("consistent mapping: %v", err)
	}
	s.mu.Lock()
	s.l2p[0], s.l2p[1] = s.l2p[1], s.l2p[0]
	s.mu.Unlock()
	if _, err := s.ReadAt(0, make([]byte, sectors(1)), 0); !errors.Is(err, errBadMapping) {
		t.Fatalf("read through a swapped l2p entry: err = %v, want errBadMapping", err)
	}
}
