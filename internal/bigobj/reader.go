// Range-read path: per-chunk fetch with active-reader pinning.
//
// Opening a reader reads the manifest, and with it chunk 0, into a store
// read buffer. A range that starts in chunk 0 serves it from that buffer,
// which the reader alone owns until the read advances past chunk 0 or the
// reader closes. The reader pins every other chunk of its span when it
// opens (refcounts in the store's pin table) and releases each chunk as the
// read advances past it — "the chunks it still needs", per ZNCache's
// active-reader tracking. Chunk bytes are attached to the pin at first
// fetch, so once a reader has seen a chunk, engine eviction cannot tear the
// in-flight read: the retained bytes serve the rest of that chunk (and any
// concurrent reader of the same generation). A chunk evicted *before* the
// reader reaches it fails the read with a clean, counted partial-object
// miss, and the manifest is dropped so the object misses whole from then
// on.
package bigobj

import (
	"errors"
	"fmt"
	"io"
)

// pinKey identifies one pinned chunk. The generation is part of the key so
// readers of an overwritten object never share pins (or bytes) with readers
// of the new version.
type pinKey struct {
	key string
	gen uint64
	idx uint32
}

// pin is one pin-table entry: a refcount of active readers that still need
// the chunk, plus the chunk payload once any of them has fetched it. buf is
// the store-owned read buffer data lives in (nil over a Get-only backend);
// the pin owns it and unpinLocked recycles it at refcount zero.
type pin struct {
	refs int
	data []byte
	buf  []byte
}

// RangeReader streams a byte range of one object. It is not safe for
// concurrent use by multiple goroutines (open one reader per goroutine);
// distinct readers over one Store are safe. Close must be called to release
// pinned chunks.
type RangeReader struct {
	s    *Store
	key  string
	man  manifest
	off  int64 // next absolute offset to read
	end  int64 // absolute end of the range, exclusive
	cur  uint32
	last uint32
	pins bool   // chunks [cur..last] are pinned
	head []byte // read buffer holding the manifest and chunk 0, while the read needs chunk 0

	cacheIdx uint32
	cache    []byte // payload of chunk cacheIdx

	closed bool
	err    error // sticky read error
}

// NewRangeReader opens a reader over [off, off+length) of the object under
// key. length < 0 means "to the end of the object"; a range reaching past
// the tail is truncated at the tail. Opening an absent object returns
// ErrNotFound and counts an object miss; a backend failure is returned as it
// is, with the key, and counts none. The reader holds chunk 0 and pins the
// rest of its chunk span until Close or until the read advances past each
// chunk.
func (s *Store) NewRangeReader(key string, off, length int64) (*RangeReader, error) {
	if off < 0 {
		return nil, fmt.Errorf("bigobj: negative offset %d", off)
	}
	s.opens.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	man, chunk0, buf, err := s.getManifest(key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			s.objectMisses.Inc()
		}
		return nil, err
	}
	end := man.size
	if length >= 0 && off+length < end {
		end = off + length
	}
	r := &RangeReader{s: s, key: key, man: man, off: off, end: end}
	if off >= end || off >= int64(man.chunkSize) {
		s.putBufLocked(buf)
	} else {
		// Chunk 0 came with the manifest: the reader serves it unpinned.
		s.chunkHits.Inc()
		r.head, r.cache = buf, chunk0
	}
	if off < end {
		r.cur = max(uint32(off/int64(man.chunkSize)), 1)
		r.last = uint32((end - 1) / int64(man.chunkSize))
		r.pins = r.cur <= r.last
		for i := r.cur; i <= r.last; i++ {
			pk := pinKey{key: key, gen: man.gen, idx: i}
			p := s.pins[pk]
			if p == nil {
				p = &pin{}
				s.pins[pk] = p
			}
			p.refs++
		}
	}
	return r, nil
}

// Size returns the total object size recorded in the manifest.
func (r *RangeReader) Size() int64 { return r.man.size }

// Read implements io.Reader over the requested range.
func (r *RangeReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("bigobj: read on closed reader for %q", r.key)
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.off >= r.end {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	idx := uint32(r.off / int64(r.man.chunkSize))
	if r.cache == nil || r.cacheIdx != idx {
		if err := r.fetch(idx); err != nil {
			return 0, err
		}
	}
	chunkStart := int64(idx) * int64(r.man.chunkSize)
	rel := int(r.off - chunkStart)
	n := len(r.cache) - rel
	if rem := r.end - r.off; int64(n) > rem {
		n = int(rem)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.cache[rel:rel+n])
	r.off += int64(n)
	r.s.readBytes.Add(uint64(n))
	r.advance()
	return n, nil
}

// fetch loads chunk idx: from the pin table if a concurrent reader already
// retained it, else from the backend, validating generation, index, and
// payload length. Any failure drops the manifest (lazy repair), releases the
// reader's remaining pins, and sticks a partial-object error.
func (r *RangeReader) fetch(idx uint32) error {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()

	pk := pinKey{key: r.key, gen: r.man.gen, idx: idx}
	if p := s.pins[pk]; p != nil && p.data != nil {
		s.chunkHits.Inc()
		r.cache, r.cacheIdx = p.data, idx
		return nil
	}

	raw, buf, ok, err := s.readLocked(r.key, chunkKey(r.key, idx))
	fail := func(detail string) error {
		s.putBufLocked(buf)
		s.chunkMisses.Inc()
		s.partialMisses.Inc()
		s.dropManifest(r.key, r.man.gen)
		r.err = fmt.Errorf("%w: %q chunk %d: %s", ErrPartialObject, r.key, idx, detail)
		r.releaseLocked(r.last + 1)
		return r.err
	}

	if err != nil {
		return fail(fmt.Sprintf("backend: %v", err))
	}
	if !ok {
		return fail("missing (evicted, expired, or lost)")
	}
	gen, ci, payload, herr := decodeChunkHeader(raw)
	if herr != nil {
		return fail(herr.Error())
	}
	if gen != r.man.gen {
		return fail(fmt.Sprintf("generation %d, want %d (overwritten mid-read)", gen, r.man.gen))
	}
	if ci != idx {
		return fail(fmt.Sprintf("carries index %d", ci))
	}
	want := int64(r.man.chunkSize)
	if tail := r.man.size - int64(idx)*int64(r.man.chunkSize); tail < want {
		want = tail
	}
	if int64(len(payload)) != want {
		return fail(fmt.Sprintf("payload %d bytes, want %d (partially written)", len(payload), want))
	}
	s.chunkHits.Inc()
	if p := s.pins[pk]; p != nil {
		// Retain for this reader and any concurrent ones; the pin owns buf.
		p.data, p.buf = payload, buf
	}
	r.cache, r.cacheIdx = payload, idx
	return nil
}

// maxFreeBufs bounds the recycled read buffers kept between fetches: a
// sequential reader needs one, and a burst of concurrent readers should not
// leave its peak behind on the heap.
const maxFreeBufs = 4

// takeBufLocked returns a recycled read buffer of capacity at least n,
// or a fresh one. Called with mu held.
func (s *Store) takeBufLocked(n int) []byte {
	if k := len(s.bufs) - 1; k >= 0 {
		b := s.bufs[k]
		s.bufs[k] = nil
		s.bufs = s.bufs[:k]
		if cap(b) >= n {
			return b
		}
	}
	return make([]byte, n)
}

// putBufLocked recycles a read buffer no reader can reach any more.
// Called with mu held.
func (s *Store) putBufLocked(b []byte) {
	if b != nil && len(s.bufs) < maxFreeBufs {
		s.bufs = append(s.bufs, b)
	}
}

// advance releases chunk 0's buffer and the pins on chunks the read has
// fully passed.
func (r *RangeReader) advance() {
	upto := r.last + 1
	if r.off < r.end {
		upto = uint32(r.off / int64(r.man.chunkSize))
	}
	if upto > 0 && (r.head != nil || r.pins && upto > r.cur) {
		r.s.mu.Lock()
		r.releaseLocked(upto)
		r.s.mu.Unlock()
	}
}

// releaseLocked drops the reader's hold on chunks below upto, which is
// above 0: chunk 0's buffer, then the pins. Called with s.mu held.
func (r *RangeReader) releaseLocked(upto uint32) {
	if r.head != nil {
		r.s.putBufLocked(r.head)
		r.head, r.cache = nil, nil
	}
	for ; r.pins && r.cur < upto; r.cur++ {
		r.s.unpinLocked(pinKey{key: r.key, gen: r.man.gen, idx: r.cur})
		r.pins = r.cur < r.last
	}
}

// Close releases chunk 0's buffer and any remaining pinned chunks. Safe to
// call twice.
func (r *RangeReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.s.mu.Lock()
	r.releaseLocked(r.last + 1)
	r.s.mu.Unlock()
	r.cache = nil
	return nil
}

// unpinLocked decrements one pin and, at zero, retires the entry. If the pin
// retained chunk bytes that the engine has meanwhile evicted, that eviction
// was absorbed by the pin — count it. Retiring recycles the pin's read
// buffer: every reader that pinned the chunk has read past it (a reader
// releases chunk k only once its offset has left k, and Close drops its
// cached view), and once the entry leaves the table no fetch can hand the
// bytes out again. Called with mu held.
func (s *Store) unpinLocked(pk pinKey) {
	p := s.pins[pk]
	if p == nil {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.data != nil && !s.backend.Contains(chunkKey(pk.key, pk.idx)) {
		s.evictionsDeferred.Inc()
	}
	delete(s.pins, pk)
	s.putBufLocked(p.buf)
}

// ReadAt reads len(p) bytes at offset off into p, with io.ReaderAt
// semantics: a read reaching the object tail returns the bytes up to the
// tail and io.EOF; a missing object returns ErrNotFound; a broken object
// returns ErrPartialObject with no bytes from the broken chunk.
func (s *Store) ReadAt(key string, p []byte, off int64) (int, error) {
	rr, err := s.NewRangeReader(key, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	defer rr.Close()
	n := 0
	for n < len(p) {
		m, rerr := rr.Read(p[n:])
		n += m
		if rerr == io.EOF {
			return n, io.EOF
		}
		if rerr != nil {
			return n, rerr
		}
	}
	return n, nil
}
