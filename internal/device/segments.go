package device

import "sync"

// segmentBytes is the payload store's segment size before NewSegments fits
// it to the zone size.
const segmentBytes = 256 << 10

// Segments is a sparse payload store over a device's byte address space. The
// simulated SSDs keep host bytes here, addressed by device offset (zns) or by
// LBA (ssd), while their flash array models only page state, time and wear —
// the split FEMU's zftl and NVMeVirt make between one flat data store and the
// NAND model. A payload write or read is therefore one copy, however many
// flash pages it spans.
//
// Space is held in fixed-size segments, each allocated on the first payload
// write that touches it; a segment reads zeros wherever it was not written,
// and a missing one reads as zeros throughout.
//
// A nil *Segments is a metadata-only device's store: it keeps nothing and
// reads as zeros. Segments takes no lock: the owning device's lock guards it.
//
// Keep takes a writer's buffer as a segment instead of copying it, and the
// writer may go on reading it with no lock at all. Its bytes never change:
// the device writes and zeroes only above its write pointer, and Zero and
// Drop leave a kept segment to its writer instead of pooling it, so the next
// Write there starts a new array.
type Segments struct {
	size int64     // bytes per segment
	segs []*[]byte // by offset / size; nil reads as zeros
	kept []bool    // by segment: taken by Keep, so never pooled
	held int64     // bytes of the segments in segs
	free sync.Pool // *[]byte segments released by Zero and Drop, reused by Write
}

// NewSegments returns an empty store over size bytes. With zone > 0 the
// segment size is halved until it divides zone, so no segment straddles two
// zones and zeroing a whole zone releases all of its segments.
func NewSegments(size, zone int64) *Segments {
	seg := int64(segmentBytes)
	for zone > 0 && zone%seg != 0 {
		seg /= 2
	}
	n := (size + seg - 1) / seg
	return &Segments{size: seg, segs: make([]*[]byte, n), kept: make([]bool, n)}
}

// Write copies data to off.
func (s *Segments) Write(off int64, data []byte) {
	for s != nil && len(data) > 0 {
		i, in := off/s.size, off%s.size
		seg := s.segs[i]
		if seg == nil {
			var recycled bool
			if seg, recycled = s.alloc(); recycled {
				clear((*seg)[:in])
				clear((*seg)[min(in+int64(len(data)), s.size):])
			}
			s.segs[i] = seg
			s.held += s.size
		}
		n := copy((*seg)[in:], data)
		data = data[n:]
		off += int64(n)
	}
}

// Keep is Write of a buffer handed over: when data is exactly the empty,
// aligned segment at off, the store keeps data as that segment instead of
// copying it and reports kept. Zero and Drop leave a kept segment to its
// owner and never pool it. Any other write is copied.
func (s *Segments) Keep(off int64, data []byte) (kept bool) {
	if s == nil || off%s.size != 0 || int64(len(data)) != s.size || s.segs[off/s.size] != nil {
		s.Write(off, data)
		return false
	}
	i := off / s.size
	s.segs[i], s.kept[i] = &data, true
	s.held += s.size
	return true
}

// Read fills p with the bytes at off.
func (s *Segments) Read(p []byte, off int64) {
	if s == nil {
		clear(p)
		return
	}
	for len(p) > 0 {
		i, in := off/s.size, off%s.size
		n := min(int64(len(p)), s.size-in)
		if seg := s.segs[i]; seg != nil {
			copy(p[:n], (*seg)[in:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// Zero makes [off, off+n) read as zeros: a segment the range covers whole
// goes back to the pool (or, once kept, to its owner), a partly covered one
// has the range cleared.
func (s *Segments) Zero(off, n int64) {
	for s != nil && n > 0 {
		i, in := off/s.size, off%s.size
		k := min(n, s.size-in)
		if seg := s.segs[i]; seg != nil {
			if k == s.size {
				s.release(i)
			} else {
				clear((*seg)[in : in+k])
			}
		}
		off += k
		n -= k
	}
}

// Drop forgets [off, off+n), which nobody reads again, and returns the bytes
// it released: a segment the range covers whole is released as Zero releases
// it, and a partly covered one keeps all of its bytes: nothing reads the
// part that died, so it is not cleared.
func (s *Segments) Drop(off, n int64) (released int64) {
	for s != nil && n > 0 {
		i, in := off/s.size, off%s.size
		k := min(n, s.size-in)
		if k == s.size && s.segs[i] != nil {
			s.release(i)
			released += s.size
		}
		off += k
		n -= k
	}
	return released
}

// Held returns the bytes of the segments the store holds.
func (s *Segments) Held() int64 {
	if s == nil {
		return 0
	}
	return s.held
}

// release gives segment i back to the pool or, once kept, to its owner.
func (s *Segments) release(i int64) {
	if !s.kept[i] {
		s.free.Put(s.segs[i])
	}
	s.segs[i], s.kept[i] = nil, false
	s.held -= s.size
}

// alloc takes a released segment (recycled is true), or makes one, which is
// zero already.
func (s *Segments) alloc() (seg *[]byte, recycled bool) {
	if seg, ok := s.free.Get().(*[]byte); ok {
		return seg, true
	}
	b := make([]byte, s.size)
	return &b, false
}
