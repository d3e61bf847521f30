// Package bigobj is a chunked large-object layer over the region cache
// engine. The engine stores values no larger than one region, so CDN-shaped
// objects (hundreds of KiB to multiple MiB, served as byte ranges) cannot
// live in it directly. bigobj splits each object into fixed-size chunks.
// The manifest value under the object key records size, chunk geometry and
// a generation number, and carries chunk 0's payload, so an object that
// fits one chunk costs one engine read; chunks 1..n-1 are ordinary engine
// values keyed "<objkey>/<n>". ZNCache makes the same move on raw ZNS zones —
// fixed-size chunk caching with active-reader tracking — because per-chunk
// eviction means one hot byte range never pins a whole object.
//
// Correctness model:
//
//   - The manifest is the commit point. Put holds chunk 0, streams chunks
//     1..n-1 and writes the manifest with chunk 0 last, so a crash or error
//     mid-put leaves orphan chunks (reclaimed by normal eviction) but never
//     a readable half-object.
//   - Every chunk carries the generation of the put that wrote it. A reader
//     holds the generation from the manifest it opened and rejects any chunk
//     with a different generation, so an overwrite racing a range read
//     produces a clean partial-object miss, never a splice of two versions.
//   - Delete tombstones the manifest first, then drops chunks. Concurrent
//     readers either finish from pinned chunk data or fail clean.
//   - Active readers pin the chunks ≥ 1 they still need (chunk 0 lives in
//     the reader's own copy of the manifest). Pinned chunk bytes are
//     retained in the pin table across engine eviction, so an in-flight read
//     is never torn by eviction pressure; eviction of unpinned chunks under
//     a live manifest surfaces as a counted partial-object miss on the next
//     read, and the manifest is lazily repaired (dropped) so the object
//     misses whole from then on.
//
// The store serializes all backend calls under one mutex (cache.Cache is
// not goroutine-safe) but releases it between per-chunk operations of a
// range read, so readers and writers interleave at chunk granularity.
package bigobj

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"znscache/internal/cache"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// DefaultChunkSize is the chunk payload size when Config.ChunkSize is zero.
// 512 KiB matches ZNCache's CHUNK_SIZE and divides the default zone size.
const DefaultChunkSize = 512 << 10

// chunkTTLSlack is added to chunk TTLs so the manifest always expires
// strictly first: readers then see a whole-object miss instead of a manifest
// whose tail chunks expired underneath it.
const chunkTTLSlack = 2 * time.Second

// Backend is the engine surface bigobj needs. Both *cache.Cache and
// *cache.Sharded satisfy it. A backend that also offers cache.Cache's
// GetBuf has range reads fetch chunks into buffers the store recycles;
// otherwise every fetch takes Get's private copy.
type Backend interface {
	SetTTL(key string, value []byte, valLen int, ttl time.Duration) error
	Get(key string) ([]byte, bool, error)
	Delete(key string) bool
	Contains(key string) bool
}

// Errors returned by the read path. Use errors.Is: returned values wrap
// these sentinels with key/chunk context.
var (
	// ErrNotFound reports that no manifest exists under the key (never
	// stored, deleted, expired, or dropped by repair).
	ErrNotFound = errors.New("bigobj: object not found")
	// ErrPartialObject reports that the manifest was readable but a chunk
	// the read needed was missing, from a different generation, or
	// corrupt. The read fails clean — no bytes from the broken chunk are
	// returned — and the manifest is dropped so later reads miss whole.
	ErrPartialObject = errors.New("bigobj: partial object")
)

// Config configures a Store.
type Config struct {
	// Backend is the engine the store writes through. Required.
	Backend Backend
	// ChunkSize is the chunk payload size in bytes. Defaults to
	// DefaultChunkSize. Chunk values (payload + header) must fit the
	// engine's region size or every put fails with cache.ErrItemTooLarge.
	ChunkSize int
	// Clock, when set, seeds generation numbers from virtual time so a
	// store built over a restored engine never reissues a generation an
	// earlier incarnation used. The harness always provides it.
	Clock *sim.Clock
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Puts              uint64 // objects committed (manifest written)
	PutBytes          uint64 // payload bytes streamed into committed puts
	PutErrors         uint64 // puts aborted by stream/backend errors
	Opens             uint64 // NewRangeReader/ReadAt calls
	ObjectMisses      uint64 // opens that found no manifest
	PartialMisses     uint64 // reads that failed on a missing/mismatched chunk
	ChunkHits         uint64 // chunks served by the backend (chunk 0 with its manifest) or a pin
	ChunkMisses       uint64 // chunk fetches the backend could not serve
	ReadBytes         uint64 // payload bytes returned to readers
	EvictionsDeferred uint64 // pinned chunks evicted under a reader but served from retained pin data
	ManifestRepairs   uint64 // manifests dropped because chunks were lost
	Deletes           uint64 // explicit Delete calls that found a manifest
}

// Store is a chunked large-object cache over a Backend. Methods are safe
// for concurrent use even when the backend is a bare *cache.Cache.
type Store struct {
	backend   Backend
	chunkSize int

	// get fetches a chunk. New resolves it once: the backend's GetBuf, which
	// reads into the buffer it is handed (recycle is then true), or Get with
	// the buffer ignored.
	get     func(key string, buf []byte) ([]byte, bool, error)
	recycle bool

	mu      sync.Mutex
	genNext uint64
	pins    map[pinKey]*pin
	scratch []byte   // manifest and chunk encode buffers, reused across Puts (guarded by mu)
	bufs    [][]byte // read buffers released by readers and pins (guarded by mu)

	puts              stats.Counter
	putBytes          stats.Counter
	putErrors         stats.Counter
	opens             stats.Counter
	objectMisses      stats.Counter
	partialMisses     stats.Counter
	chunkHits         stats.Counter
	chunkMisses       stats.Counter
	readBytes         stats.Counter
	evictionsDeferred stats.Counter
	manifestRepairs   stats.Counter
	deletes           stats.Counter
}

// New builds a Store over cfg.Backend.
func New(cfg Config) (*Store, error) {
	if cfg.Backend == nil {
		return nil, errors.New("bigobj: Config.Backend is required")
	}
	cs := cfg.ChunkSize
	if cs == 0 {
		cs = DefaultChunkSize
	}
	if cs < 512 {
		return nil, fmt.Errorf("bigobj: chunk size %d below minimum 512", cs)
	}
	s := &Store{
		backend:   cfg.Backend,
		chunkSize: cs,
		pins:      make(map[pinKey]*pin),
		genNext:   1,
	}
	if gb, ok := cfg.Backend.(interface {
		GetBuf(key string, buf []byte) ([]byte, bool, error)
	}); ok {
		s.get, s.recycle = gb.GetBuf, true
	} else {
		s.get = func(key string, _ []byte) ([]byte, bool, error) { return cfg.Backend.Get(key) }
	}
	if cfg.Clock == nil {
		if c, ok := cfg.Backend.(interface{ Clock() *sim.Clock }); ok {
			cfg.Clock = c.Clock()
		}
	}
	if cfg.Clock != nil {
		// Virtual time is monotonic across snapshot/restore, and every
		// committed put advances it, so seeding from Now() keeps
		// generations unique across store incarnations over the same
		// restored engine.
		s.genNext = uint64(cfg.Clock.Now()) + 1
	}
	if rs, ok := cfg.Backend.(interface{ RegionSize() int64 }); ok {
		// A manifest value (chunk 0 behind the larger header) must fit one
		// region alongside the engine's per-item header; fail construction,
		// not every put.
		if int64(cs+manifestSize+64) > rs.RegionSize() {
			return nil, fmt.Errorf("bigobj: chunk size %d does not fit region size %d", cs, rs.RegionSize())
		}
	}
	return s, nil
}

// ChunkSize returns the configured chunk payload size.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:              s.puts.Load(),
		PutBytes:          s.putBytes.Load(),
		PutErrors:         s.putErrors.Load(),
		Opens:             s.opens.Load(),
		ObjectMisses:      s.objectMisses.Load(),
		PartialMisses:     s.partialMisses.Load(),
		ChunkHits:         s.chunkHits.Load(),
		ChunkMisses:       s.chunkMisses.Load(),
		ReadBytes:         s.readBytes.Load(),
		EvictionsDeferred: s.evictionsDeferred.Load(),
		ManifestRepairs:   s.manifestRepairs.Load(),
		Deletes:           s.deletes.Load(),
	}
}

// MetricsInto registers the store's counters on r under bigobj_* names.
func (s *Store) MetricsInto(r *obs.Registry, labels obs.Labels) {
	r.Counter("bigobj_puts_total", "objects committed (manifest written)", labels, &s.puts)
	r.Counter("bigobj_put_bytes_total", "payload bytes streamed into committed puts", labels, &s.putBytes)
	r.Counter("bigobj_put_errors_total", "puts aborted by stream or backend errors", labels, &s.putErrors)
	r.Counter("bigobj_opens_total", "range reader opens (NewRangeReader/ReadAt)", labels, &s.opens)
	r.Counter("bigobj_object_misses_total", "opens that found no manifest", labels, &s.objectMisses)
	r.Counter("bigobj_partial_object_misses_total", "reads failed clean on a missing or mismatched chunk", labels, &s.partialMisses)
	r.Counter("bigobj_chunk_hits_total", "chunks served from the backend (chunk 0 with its manifest) or a pin", labels, &s.chunkHits)
	r.Counter("bigobj_chunk_misses_total", "chunk fetches the backend could not serve", labels, &s.chunkMisses)
	r.Counter("bigobj_read_bytes_total", "payload bytes returned to readers", labels, &s.readBytes)
	r.Counter("bigobj_pinned_evictions_deferred_total", "engine evictions of pinned chunks absorbed by retained pin data", labels, &s.evictionsDeferred)
	r.Counter("bigobj_manifest_repairs_total", "manifests dropped because chunks under them were lost", labels, &s.manifestRepairs)
	r.Counter("bigobj_deletes_total", "explicit deletes that found a manifest", labels, &s.deletes)
	r.Gauge("bigobj_pinned_chunks", "chunks currently pinned by active readers", labels, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pins))
	})
}

// chunkKey builds the engine key for chunk i of key.
func chunkKey(key string, i uint32) string {
	return key + "/" + strconv.FormatUint(uint64(i), 10)
}

// Put streams r into the cache as a chunked object under key, replacing any
// existing object. Chunk 0 is held back, chunks 1..n-1 are written, and the
// manifest carrying chunk 0 goes last, so a failed put never leaves a
// readable object; the previous object (if any) stays readable until the
// new manifest commits, modulo chunk-key overlap. ttl <= 0 stores without
// expiry.
func (s *Store) Put(key string, r io.Reader, ttl time.Duration) error {
	if key == "" {
		return errors.New("bigobj: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	gen := s.genNext
	s.genNext++

	// Remember the previous geometry so stale higher-index chunks are
	// dropped after the new manifest commits (a shrinking overwrite must
	// not leave old-generation tail chunks pinned in the engine).
	var prevCount uint32
	if m, err := s.manifestLocked(key); err == nil {
		prevCount = m.chunkCount
	}

	chunkTTL := ttl
	if ttl > 0 {
		chunkTTL = ttl + chunkTTLSlack
	}

	if n := manifestSize + chunkHeaderSize + 2*s.chunkSize; cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	head := s.scratch[:manifestSize+s.chunkSize]
	buf := s.scratch[len(head) : len(head)+chunkHeaderSize+s.chunkSize]
	n0, err := io.ReadFull(r, head[manifestSize:])
	size := int64(n0)
	var idx uint32 // chunks read so far
	if n0 > 0 {
		idx = 1
	}
	for err == nil {
		var n int
		n, err = io.ReadFull(r, buf[chunkHeaderSize:])
		if n > 0 {
			encodeChunkHeader(buf, gen, idx, uint32(n))
			val := buf[:chunkHeaderSize+n]
			if serr := s.backend.SetTTL(chunkKey(key, idx), val, len(val), chunkTTL); serr != nil {
				s.abortPut(key, gen, idx+1)
				return fmt.Errorf("bigobj: put %q chunk %d: %w", key, idx, serr)
			}
			size += int64(n)
			idx++
		}
	}
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		s.abortPut(key, gen, idx)
		return fmt.Errorf("bigobj: put %q: read: %w", key, err)
	}

	encodeManifest(head, manifest{
		gen:        gen,
		size:       size,
		chunkSize:  uint32(s.chunkSize),
		chunkCount: idx,
	})
	mv := head[:manifestSize+n0]
	if err := s.backend.SetTTL(key, mv, len(mv), ttl); err != nil {
		s.abortPut(key, gen, idx)
		return fmt.Errorf("bigobj: put %q manifest: %w", key, err)
	}
	// Commit point passed: drop stale tail chunks from the previous
	// generation. Readers of the old manifest already fail clean on the
	// generation check.
	for i := max(idx, 1); i < prevCount; i++ {
		s.backend.Delete(chunkKey(key, i))
	}
	s.puts.Inc()
	s.putBytes.Add(uint64(size))
	return nil
}

// abortPut cleans up the chunks of a failed put. Called with mu held. Only
// chunks of this put's generation are dropped — a chunk slot already
// overwritten by a racing newer put is left alone.
func (s *Store) abortPut(key string, gen uint64, wrote uint32) {
	s.putErrors.Inc()
	for i := uint32(1); i < wrote; i++ {
		ck := chunkKey(key, i)
		raw, buf, ok, err := s.readLocked(key, ck)
		if err == nil && ok {
			if g, _, _, herr := decodeChunkHeader(raw); herr == nil && g == gen {
				s.backend.Delete(ck)
			}
		}
		s.putBufLocked(buf)
	}
}

// Stat describes a stored object.
type Stat struct {
	Size       int64
	ChunkSize  int
	ChunkCount int
}

// Stat returns the manifest view of key, or ErrNotFound.
func (s *Store) Stat(key string) (Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.manifestLocked(key)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Size:       m.size,
		ChunkSize:  int(m.chunkSize),
		ChunkCount: int(m.chunkCount),
	}, nil
}

// Contains reports whether a manifest exists under key (chunks unverified).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend.Contains(key)
}

// notFoundError is the miss error: it names the key and matches
// ErrNotFound, and builds its message only when asked.
type notFoundError struct{ key string }

func (e *notFoundError) Error() string { return fmt.Sprintf("%v: %q", ErrNotFound, e.key) }

func (e *notFoundError) Unwrap() error { return ErrNotFound }

// readLocked fetches the value under k, a key of the object objKey, into a
// store read buffer (nil over a Get-only backend). The caller hands buf back
// with putBufLocked once nothing reads the value. Every read buffer is sized
// for objKey's manifest, which needs more than any of its chunks: the
// manifest header outgrows the chunk header by more than a uint32 index's
// "/<n>" key suffix. Called with mu held.
func (s *Store) readLocked(objKey, k string) (val, buf []byte, ok bool, err error) {
	if s.recycle {
		buf = s.takeBufLocked(cache.ReadSpan(len(objKey), manifestSize+s.chunkSize))
	}
	val, ok, err = s.get(k, buf)
	return val, buf, ok, err
}

// getManifest fetches and decodes the manifest under key into a store read
// buffer, returning chunk 0's payload and the buffer it lives in, for the
// caller to hand back with putBufLocked. A missing or undecodable manifest
// is ErrNotFound; a backend failure is returned as itself, with the key,
// since it says nothing about whether the object exists. On error the
// buffer is already recycled. Called with mu held.
func (s *Store) getManifest(key string) (manifest, []byte, []byte, error) {
	raw, buf, ok, err := s.readLocked(key, key)
	if err != nil || !ok {
		s.putBufLocked(buf)
		if err != nil {
			return manifest{}, nil, nil, fmt.Errorf("bigobj: manifest %q: %w", key, err)
		}
		return manifest{}, nil, nil, &notFoundError{key}
	}
	m, chunk0, derr := decodeManifest(raw)
	if derr != nil {
		s.putBufLocked(buf)
		return manifest{}, nil, nil, fmt.Errorf("%w: %q: %v", ErrNotFound, key, derr)
	}
	return m, chunk0, buf, nil
}

// manifestLocked is getManifest for callers that need only the manifest.
func (s *Store) manifestLocked(key string) (manifest, error) {
	m, _, buf, err := s.getManifest(key)
	s.putBufLocked(buf)
	return m, err
}

// Delete tombstones the manifest first, then drops the object's chunks.
// Concurrent readers of the old generation finish from pinned data or fail
// clean on the next unpinned chunk. Returns true when a manifest existed.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.manifestLocked(key)
	if err != nil {
		// No (readable) manifest; still drop the bare key if present.
		s.backend.Delete(key)
		return false
	}
	s.backend.Delete(key)
	for i := uint32(1); i < m.chunkCount; i++ {
		s.backend.Delete(chunkKey(key, i))
	}
	s.deletes.Inc()
	return true
}

// dropManifest removes the manifest under key iff it still carries gen, and
// counts a repair. Chunks are left to normal eviction: deleting them here
// could destroy chunk slots already rewritten by a racing newer put. Called
// with mu held.
func (s *Store) dropManifest(key string, gen uint64) {
	m, err := s.manifestLocked(key)
	if err != nil || m.gen != gen {
		return
	}
	s.backend.Delete(key)
	s.manifestRepairs.Inc()
}

// Repair scans the given object keys (typically cache.SnapshotKeys of the
// snapshot just restored) and drops every manifest that lost chunks to the
// crash/restore path, counting each as one manifest repair. Keys without a
// manifest are skipped. Returns the number of manifests dropped.
//
// This is the eager half of restore safety; the read path performs the same
// repair lazily when it trips over a broken object.
func (s *Store) Repair(keys []string) int {
	dropped := 0
	for _, key := range keys {
		s.mu.Lock()
		m, err := s.manifestLocked(key)
		if err != nil {
			s.mu.Unlock()
			continue
		}
		broken := false
		for i := uint32(1); i < m.chunkCount && !broken; i++ {
			raw, buf, ok, gerr := s.readLocked(key, chunkKey(key, i))
			g, ci, _, herr := decodeChunkHeader(raw)
			broken = gerr != nil || !ok || herr != nil || g != m.gen || ci != i
			s.putBufLocked(buf)
		}
		if broken {
			s.dropManifest(key, m.gen)
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}
