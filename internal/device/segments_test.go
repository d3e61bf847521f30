package device

import (
	"bytes"
	"testing"
)

// TestSegmentsView: a kept buffer is the stored segment in place, so its
// writer reads the stored bytes without a copy; a Read copies out and leaves
// the buffer untouched, and Held counts the segment.
func TestSegmentsView(t *testing.T) {
	s := NewSegments(4*segmentBytes, segmentBytes)
	buf := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, segmentBytes/7+1)[:segmentBytes]
	want := bytes.Clone(buf)
	if !s.Keep(segmentBytes, buf) {
		t.Fatal("Keep copied a whole empty segment")
	}
	if &(*s.segs[1])[0] != &buf[0] || len(*s.segs[1]) != segmentBytes {
		t.Fatal("Keep copied instead of holding the writer's bytes")
	}
	got := make([]byte, 7000)
	s.Read(got, segmentBytes+100)
	if !bytes.Equal(got, want[100:7100]) {
		t.Fatal("a read of a kept segment did not return the writer's bytes")
	}
	clear(got) // reads copy out; the kept buffer is untouched
	if !bytes.Equal(buf, want) {
		t.Fatal("scribbling over a read changed the kept buffer")
	}
	if s.Held() != segmentBytes {
		t.Fatalf("Held = %d with one kept segment, want %d", s.Held(), segmentBytes)
	}
}

// TestSegmentsDropViewed: zeroing a segment its writer still holds drops it
// instead of pooling it, so the writer keeps its bytes while the offset is
// written again, and the new segment is not marked kept and reads back its
// own bytes.
func TestSegmentsDropViewed(t *testing.T) {
	s := NewSegments(2*segmentBytes, segmentBytes)
	old := bytes.Repeat([]byte{0xAB}, segmentBytes)
	buf := bytes.Clone(old)
	if !s.Keep(0, buf) {
		t.Fatal("Keep copied a whole empty segment")
	}
	first := s.segs[0]
	s.Zero(0, segmentBytes)
	if s.segs[0] != nil || s.kept[0] {
		t.Fatal("Zero of a whole kept segment kept it")
	}
	// Enough writes to take back anything the pool holds.
	for i := 0; i < 4; i++ {
		s.Write(0, bytes.Repeat([]byte{byte(i)}, 4096))
		if s.segs[0] == first || &(*s.segs[0])[0] == &buf[0] {
			t.Fatal("a kept segment came back from the pool")
		}
		if s.kept[0] {
			t.Fatal("a fresh segment inherited the kept mark")
		}
		s.Zero(0, segmentBytes)
	}
	s.Write(0, bytes.Repeat([]byte{0xCD}, 4096))
	if !bytes.Equal(buf, old) {
		t.Fatal("a kept buffer's bytes changed after its segment was zeroed and the offset rewritten")
	}
	got := make([]byte, 4096)
	s.Read(got, 0)
	if got[0] != 0xCD {
		t.Fatalf("read %#x after the rewrite, want 0xcd", got[0])
	}
}

// TestSegmentsDrop: Drop releases the segments a range covers whole and
// leaves a partly covered segment with every byte it had, while Held counts
// what the store keeps.
func TestSegmentsDrop(t *testing.T) {
	s := NewSegments(4*segmentBytes, segmentBytes)
	data := make([]byte, 4*segmentBytes)
	for i := range data {
		data[i] = byte(i*7 + i/4096)
	}
	s.Write(0, data)
	if got := s.Held(); got != 4*segmentBytes {
		t.Fatalf("Held = %d after writing four segments, want %d", got, 4*segmentBytes)
	}
	// Segments 1 and 2 whole, the tail of 0 and the head of 3 in part.
	if got := s.Drop(segmentBytes-4096, 2*segmentBytes+8192); got != 2*segmentBytes {
		t.Fatalf("Drop released %d bytes, want %d", got, 2*segmentBytes)
	}
	if s.segs[1] != nil || s.segs[2] != nil || s.Held() != 2*segmentBytes {
		t.Fatalf("after Drop: segment 1 held %v, 2 held %v, Held %d", s.segs[1] != nil, s.segs[2] != nil, s.Held())
	}
	for _, r := range [][2]int64{{0, segmentBytes}, {3 * segmentBytes, 4 * segmentBytes}} {
		got := make([]byte, r[1]-r[0])
		s.Read(got, r[0])
		if !bytes.Equal(got, data[r[0]:r[1]]) {
			t.Errorf("partly dropped segment at %d lost bytes", r[0])
		}
	}
	if got := s.Drop(segmentBytes, segmentBytes); got != 0 {
		t.Errorf("dropping a released segment again released %d bytes", got)
	}

	var nilStore *Segments
	if nilStore.Drop(0, segmentBytes) != 0 || nilStore.Held() != 0 {
		t.Error("a metadata-only store released or held bytes")
	}
}

// TestSegmentsKeep: Keep takes a buffer that is exactly one empty, aligned
// segment as that segment, in place, and copies any other write. A kept
// segment never goes to the pool, whether zeroed or dropped, so its owner's
// bytes stay as they are while the offset is written again.
func TestSegmentsKeep(t *testing.T) {
	s := NewSegments(4*segmentBytes, segmentBytes)
	for _, c := range []struct {
		name string
		off  int64
		n    int
	}{
		{"short", 0, segmentBytes - 4096},
		{"unaligned", 4096, segmentBytes},
		{"across two segments", segmentBytes + 4096, segmentBytes},
	} {
		data := bytes.Repeat([]byte{7}, c.n)
		if s.Keep(c.off, data) {
			t.Errorf("%s: Keep kept the buffer", c.name)
		}
		got := make([]byte, c.n)
		if s.Read(got, c.off); !bytes.Equal(got, data) || &(*s.segs[c.off/segmentBytes])[0] == &data[0] {
			t.Errorf("%s: the write was not copied", c.name)
		}
		s.Zero(0, 4*segmentBytes)
	}
	s.Write(3*segmentBytes+4096, []byte{1})
	if s.Keep(3*segmentBytes, make([]byte, segmentBytes)) {
		t.Error("Keep kept a buffer over a segment already written")
	}

	for _, release := range []func(){
		func() { s.Zero(0, segmentBytes) },
		func() { s.Drop(0, segmentBytes) },
	} {
		buf := bytes.Repeat([]byte{0xAB}, segmentBytes)
		held := s.Held()
		if !s.Keep(0, buf) || &(*s.segs[0])[0] != &buf[0] || s.Held() != held+segmentBytes {
			t.Fatal("Keep copied a whole empty segment")
		}
		release()
		// Enough writes to take back anything the pool holds.
		for i := 0; i < 4; i++ {
			s.Write(0, bytes.Repeat([]byte{byte(i)}, segmentBytes))
			s.Zero(0, segmentBytes)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xAB}, segmentBytes)) {
			t.Fatal("a kept buffer came back from the pool and was written over")
		}
	}
	var nilStore *Segments
	if nilStore.Keep(0, make([]byte, segmentBytes)) {
		t.Error("a metadata-only store kept a buffer")
	}
}
