package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"znscache/internal/stats"
)

// This file implements the engine's index and the lock-free read path
// (DESIGN.md §12). The index is one table of stripes, each a map from key to
// entry: where the item lies on flash, where its value lies in memory and
// its TTL deadline. The engine owns the table: every write
// happens on the engine's single-threaded side, under the shard write lock,
// and the engine reads its own entries without a stripe lock, because no
// other goroutine writes them.
//
// With Config.ReadIndex on, concurrent readers consult the same table
// without the shard lock. The contract:
//
//   - A reader's lookup is one stripe read lock around one map lookup. Every
//     engine write takes its stripe's write lock and replaces one entry
//     whole, so a reader always copies out a complete entry. The bytes behind
//     an image are never written again: a region buffer is appended to only
//     past what its entries point at and is never recycled, and a store's
//     view is immutable (RegionViewer). A sealed region over a store that
//     lends no view has an image without bytes: its reads take the locked
//     path, which reads the store.
//   - Stripe locks are leaf locks: never nested, never held across a call out
//     of this file, never taken under noteMu.
//   - Readers never write the index. A reader that finds an expired entry
//     reports a miss and queues an expiry note; the engine deletes the entry
//     when it drains the note, if the entry is still expired then.
//   - Side effects a classic Get performs under the lock are deferred as
//     notes into a bounded queue that mutators drain at the top of every
//     locked operation: always the TTL removal, and a touch (LRU recency)
//     only under Policy LRU. The queue drops on overflow (the drop is
//     counted) — these are hints, correctness never depends on a note
//     being processed.
//   - Fast reads do not advance the virtual clock. The simulated-time model
//     belongs to the single-threaded replay; a concurrent serving workload
//     observes the constant index-lookup cost in the latency histogram and
//     leaves the clock to the mutators.
//
// Without Config.ReadIndex no reader exists: the table has one stripe, picked
// without a hash, and the engine takes no stripe lock.

// image is what one region generation's entries point into: the region
// buffer while the region is open or flushing, and from completeFlush on the
// store's view of the region, or no bytes when the store lends no view. Every
// generation gets a fresh image, so an entry a reader loaded before an
// eviction still reads its own generation's bytes.
type image struct{ p atomic.Pointer[imageBytes] }

// imageBytes is laid out as the region is; b is nil once a region sealed
// over a store that lends no view.
type imageBytes struct {
	b       []byte
	onStore bool // b is the store's view (or nil), not memory held for the index
}

// readNote is one deferred side effect observed by the lock-free path.
type readNote struct {
	key    string
	expire bool // true: TTL expiry observed; false: touch (recency)
}

// readNoteCap bounds the deferred-note queue. Overflow drops notes (counted
// in noteDrops): under a read-only storm with no mutator to drain the queue,
// recency hints are shed rather than memory grown.
const readNoteCap = 4096

// readStripes is the stripe count with the read index on. A key's stripe is
// fixed by its hash, so readers of different keys rarely meet on one lock.
const readStripes = 64

type stripeState struct {
	mu sync.RWMutex
	m  map[string]entry
}

// stripe pads stripeState to 128 bytes — a cache line pair, the unit the
// adjacent-line prefetcher moves — so reader-count updates on one stripe's
// lock do not invalidate its neighbours'.
type stripe struct {
	stripeState
	_ [128 - unsafe.Sizeof(stripeState{})%128]byte
}

// index is the engine's key index. Only the engine writes it; with shared
// set, lock-free readers read it too.
type index struct {
	// shared is Config.ReadIndex: readers look entries up concurrently, so
	// every write takes its stripe's write lock.
	shared bool
	seed   maphash.Seed
	// touch records whether hits queue touch notes: only LRU recency reads
	// them.
	touch   bool
	stripes []stripe // readStripes when shared, else one
	// dramBytes is the bytes of the region buffers behind images: the open
	// and flushing regions' (gauge cache_dram_bytes).
	dramBytes atomic.Int64

	noteMu sync.Mutex
	notes  []readNote
	spare  []readNote // swap buffer so draining never allocates

	fastHits   stats.Counter // gets answered without the shard lock
	fastMisses stats.Counter // misses answered without the shard lock
	dramHits   stats.Counter // fast hits whose image was a region buffer
	storeHits  stats.Counter // fast hits whose image was the store's view
	noteDrops  stats.Counter // deferred notes shed on queue overflow
}

func newIndex(shared, touch bool) *index {
	ix := &index{shared: shared, touch: touch}
	n := 1
	if shared {
		n = readStripes
		ix.seed = maphash.MakeSeed()
		ix.notes = make([]readNote, 0, readNoteCap)
		ix.spare = make([]readNote, 0, readNoteCap)
	}
	ix.stripes = make([]stripe, n)
	for i := range ix.stripes {
		ix.stripes[i].m = make(map[string]entry)
	}
	return ix
}

// stripe returns key's stripe.
func (ix *index) stripe(key string) *stripe {
	if !ix.shared {
		return &ix.stripes[0]
	}
	return &ix.stripes[maphash.String(ix.seed, key)%readStripes]
}

// lookup is the engine's read of key's entry, and returns key's stripe for a
// write that follows. It takes no stripe lock: only the engine writes.
func (ix *index) lookup(key string) (*stripe, entry, bool) {
	s := ix.stripe(key)
	e, ok := s.m[key]
	return s, e, ok
}

// lookupLog is lookup for a key-log slice: hashing it as bytes and indexing
// the map with string(key) copy nothing.
func (ix *index) lookupLog(key []byte) (*stripe, entry, bool) {
	s := &ix.stripes[0]
	if ix.shared {
		s = &ix.stripes[maphash.Bytes(ix.seed, key)%readStripes]
	}
	e, ok := s.m[string(key)]
	return s, e, ok
}

// load is a reader's lookup, under the stripe's read lock.
func (ix *index) load(key string) (entry, bool) {
	s := ix.stripe(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e, ok
}

// put installs e as key's entry in s, key's stripe.
func (ix *index) put(s *stripe, key string, e entry) {
	if ix.shared {
		s.mu.Lock()
		s.m[key] = e
		s.mu.Unlock()
		return
	}
	s.m[key] = e
}

// drop removes key from s, its stripe.
func (ix *index) drop(s *stripe, key string) {
	if ix.shared {
		s.mu.Lock()
		delete(s.m, key)
		s.mu.Unlock()
		return
	}
	delete(s.m, key)
}

// dropLog is drop for a key-log slice.
func (ix *index) dropLog(s *stripe, key []byte) {
	if ix.shared {
		s.mu.Lock()
		delete(s.m, string(key))
		s.mu.Unlock()
		return
	}
	delete(s.m, string(key))
}

// len returns the number of entries.
func (ix *index) len() int {
	n := 0
	for i := range ix.stripes {
		n += len(ix.stripes[i].m)
	}
	return n
}

// each calls fn for every entry, in no particular order.
func (ix *index) each(fn func(key string, e entry)) {
	for i := range ix.stripes {
		for k, e := range ix.stripes[i].m {
			fn(k, e)
		}
	}
}

// dramImage returns an image over b, a region buffer.
func (ix *index) dramImage(b []byte) *image {
	img := new(image)
	img.p.Store(&imageBytes{b: b})
	ix.dramBytes.Add(int64(len(b)))
	return img
}

// seal moves img off its buffer onto the store's view b, or onto no bytes
// when b is nil.
func (ix *index) seal(img *image, b []byte) {
	ix.retire(img)
	img.p.Store(&imageBytes{b: b, onStore: true})
}

// retire takes img's bytes, unless they are the store's, out of dramBytes.
func (ix *index) retire(img *image) {
	if ib := img.p.Load(); !ib.onStore {
		ix.dramBytes.Add(-int64(len(ib.b)))
	}
}

// note enqueues a deferred side effect, dropping it if the queue is full.
func (ix *index) note(n readNote) {
	ix.noteMu.Lock()
	if len(ix.notes) >= readNoteCap {
		ix.noteMu.Unlock()
		ix.noteDrops.Inc()
		return
	}
	ix.notes = append(ix.notes, n)
	ix.noteMu.Unlock()
}

// TryFastGet attempts to answer a Get without the shard lock. done reports
// whether the lookup was fully answered; when done is false the caller must
// retry on the locked path, which reads the store. On a hit the returned
// slice lies in a region image — a region buffer or the store's view — which
// never changes: callers may keep it as long as they like, and must treat
// it as read-only.
//
// Accounting on the fast path: the op and hit/miss counters are atomic and
// updated before return; the latency histogram observes the constant index
// lookup cost; recency/TTL side effects become deferred notes. The virtual
// clock is not advanced.
func (c *Cache) TryFastGet(key string) (val []byte, found, done bool) {
	var t fastTally
	val, found, done = c.fastLookup(key, &t)
	c.accountFast(t)
	return val, found, done
}

// fastTally counts lock-free answers not yet folded into an engine's
// counters, so a batch of lookups on one shard is accounted in one step.
// The hits that returned bytes split by image kind into dramHits and
// storeHits.
type fastTally struct{ hits, misses, dramHits, storeHits uint64 }

// accountFast folds t into the engine's counters: the op count, the hit
// ratio, the fast-path split and one latency observation per lookup at the
// constant index cost. The totals equal those of one TryFastGet per lookup.
func (c *Cache) accountFast(t fastTally) {
	n := t.hits + t.misses
	if n == 0 {
		return
	}
	c.gets.Add(n)
	c.getLat.ObserveN(c.cpu.IndexLookup, int(n))
	c.hitRatio.Add(t.hits, t.misses)
	if t.hits > 0 {
		c.idx.fastHits.Add(t.hits)
		c.idx.dramHits.Add(t.dramHits)
		c.idx.storeHits.Add(t.storeHits)
	}
	if t.misses > 0 {
		c.idx.fastMisses.Add(t.misses)
	}
}

// fastLookup is TryFastGet with the answer counted into t instead of the
// engine's counters; the caller settles t with accountFast.
func (c *Cache) fastLookup(key string, t *fastTally) (val []byte, found, done bool) {
	ix := c.idx
	if !ix.shared {
		return nil, false, false
	}
	e, ok := ix.load(key)
	if ok && e.expired(c.clock.Now()) {
		// The engine deletes the entry when it drains the note.
		ix.note(readNote{key: key, expire: true})
		ok = false
	}
	if !ok {
		t.misses++
		return nil, false, true
	}
	// The image is loaded once: a seal may take its bytes away at any time.
	var ib *imageBytes
	if e.img != nil {
		ib = e.img.p.Load()
	}
	if c.cfg.TrackValues && (ib == nil || ib.b == nil) {
		// Value bytes not in memory (a metadata-only insert, a restored entry
		// not yet promoted, or a region sealed over a store that lends no
		// view): the locked path must perform the device read.
		return nil, false, false
	}
	if ix.touch {
		ix.note(readNote{key: key})
	}
	t.hits++
	if ib == nil {
		return nil, true, true
	}
	if ib.onStore {
		t.storeHits++
	} else {
		t.dramHits++
	}
	off := e.valueOff(len(key))
	end := off + e.valLen
	return ib.b[off:end:end], true, true
}

// TryFastContains answers Contains without the shard lock; done=false means
// the read index is disabled and the caller must use the locked path.
func (c *Cache) TryFastContains(key string) (found, done bool) {
	ix := c.idx
	if !ix.shared {
		return false, false
	}
	e, ok := ix.load(key)
	if ok && e.expired(c.clock.Now()) {
		ix.note(readNote{key: key, expire: true})
		ok = false
	}
	return ok, true
}

// drainReadNotes applies the deferred side effects accumulated by the fast
// path. It must run under the shard write lock (the engine's single-threaded
// context): it writes the index, the eviction order, and the expiry
// counters. Called at the top of every locked operation so note processing
// points are deterministic under a per-shard replay.
func (c *Cache) drainReadNotes() {
	ix := c.idx
	if !ix.shared {
		return
	}
	ix.noteMu.Lock()
	if len(ix.notes) == 0 {
		ix.noteMu.Unlock()
		return
	}
	batch := ix.notes
	ix.notes = ix.spare[:0]
	ix.noteMu.Unlock()

	now := c.clock.Now()
	for _, n := range batch {
		s, e, ok := ix.lookup(n.key)
		if !ok {
			continue
		}
		if n.expire {
			// Re-check: a Set after the reader's observation may have
			// replaced the item with a live one — only remove if the entry
			// is still past its deadline.
			if e.expired(now) {
				c.expire(s, n.key)
			}
			continue
		}
		// Touch: the recency effect of a classic locked Get.
		c.regions.touch(int(e.region))
	}
	ix.spare = batch[:0]
}

// promote points e, a sealed entry whose value was just read and verified, at
// its region's image so later reads of the key go lock-free, and reports
// whether it changed e; the caller writes e back. A restored region gets its
// image from the store's view on its first promotion. No-op when the read
// index is off, the entry has an image already, or its region has none and
// the store lends no view.
func (c *Cache) promote(e *entry) bool {
	if !c.idx.shared || e.img != nil {
		return false
	}
	m := &c.regions.meta[e.region]
	if m.img == nil {
		b := c.storeView(int(e.region))
		if b == nil {
			return false
		}
		m.img = new(image)
		m.img.p.Store(&imageBytes{b: b, onStore: true})
	}
	e.img = m.img
	return true
}

// FastReadStats reports the lock-free path's counters: gets answered without
// the shard lock (hits, misses) and deferred notes dropped on overflow.
// Zeros when the read index is disabled.
func (c *Cache) FastReadStats() (fastHits, fastMisses, noteDrops uint64) {
	return c.idx.fastHits.Load(), c.idx.fastMisses.Load(), c.idx.noteDrops.Load()
}
