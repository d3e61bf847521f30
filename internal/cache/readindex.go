package cache

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"znscache/internal/stats"
)

// This file implements the lock-free read path (DESIGN.md §12): a striped
// read index maintained alongside the engine's authoritative index. The
// engine itself stays single-threaded — every structure it owns (index map,
// region table, eviction order) is only touched under the shard write lock —
// but mutators additionally publish a per-key view (where the value lies in
// a region image, plus the TTL deadline) into a fixed table of readStripes
// stripes that concurrent readers consult without the shard lock.
//
// The contract:
//
//   - Readers never take the shard lock. A lookup is one stripe read lock
//     around one map lookup; entries are stored by value and replaced or
//     updated whole under the stripe's write lock, so a reader always copies
//     out a complete entry. The bytes behind an image are never written
//     again: a region buffer is appended to only past what it has published
//     and is never recycled, a copy of live values is written once before
//     any entry points into it, and a store's view is immutable
//     (RegionViewer).
//   - Stripe locks are leaf locks: never nested, never held across a call out
//     of this file, never taken under noteMu.
//   - The read index mirrors the authoritative index: every insert publishes
//     (appendItem), every removal unpublishes (delete/expiry/eviction/loss).
//     A reader that misses the read index may correctly report a miss; the
//     only transient skew a concurrent reader can observe is a spurious miss
//     mid-eviction-reinsert — never stale or wrong bytes.
//   - The one mutation a reader makes is lazy TTL removal: under the stripe
//     write lock it deletes the key only if the key's current entry is still
//     expired at the reader's clock reading. The clock is monotonic, so the
//     fresh entry of a concurrent re-Set survives.
//   - Side effects a classic Get performs under the lock are deferred as
//     notes into a bounded queue that mutators drain at the top of every
//     locked operation: always the authoritative TTL removal, and a touch
//     (LRU recency, the reinsertion hit counter) only when something reads
//     it — Policy LRU or ReinsertHits > 0. The queue drops on overflow (the
//     drop is counted) — these are hints, correctness never depends on a note
//     being processed.
//   - Fast reads do not advance the virtual clock. The simulated-time model
//     belongs to the single-threaded replay; a concurrent serving workload
//     observes the constant index-lookup cost in the latency histogram and
//     leaves the clock to the mutators.

// image is what one region generation's entries point into: the region
// buffer while the region is open or flushing, and from completeFlush on the
// store's view of the region. Over a store that lends no view it becomes a
// copy of the region's live values (copyLive), or stays on the buffer when
// every item in the region lives. Every generation gets a fresh image,
// so an entry a reader loaded before an eviction still reads its own
// generation's bytes. A restored key promoted over a store that lends no
// view gets an image of its own, over a copy of its value.
type image struct{ p atomic.Pointer[imageBytes] }

type imageBytes struct {
	b       []byte
	onStore bool // b is the store's view, not memory held for the index
}

// readEntry is one published item: where its value lies in a region image,
// plus the TTL deadline. img is nil when the bytes are not in memory (a
// metadata-only insert, or a restored entry not yet promoted by a verified
// sealed read); with TrackValues on, such an entry sends value-returning
// reads to the locked path.
type readEntry struct {
	img      *image
	off, n   uint32 // the value is img's bytes [off, off+n)
	expireAt uint32 // virtual-clock second; 0 = no TTL
}

// expired reports whether the entry's TTL deadline has passed at virtual
// time now.
func (e readEntry) expired(now time.Duration) bool {
	return e.expireAt != 0 && now >= time.Duration(e.expireAt)*time.Second
}

// readNote is one deferred side effect observed by the lock-free path.
type readNote struct {
	key    string
	expire bool // true: TTL expiry observed; false: touch (recency + hits)
}

// readNoteCap bounds the deferred-note queue. Overflow drops notes (counted
// in noteDrops): under a read-only storm with no mutator to drain the queue,
// recency hints are shed rather than memory grown.
const readNoteCap = 4096

// readStripes is the read index's stripe count. A key's stripe is fixed by
// its hash, so readers of different keys rarely meet on one lock.
const readStripes = 64

type stripeState struct {
	mu sync.RWMutex
	m  map[string]readEntry
}

// stripe pads stripeState to 128 bytes — a cache line pair, the unit the
// adjacent-line prefetcher moves — so reader-count updates on one stripe's
// lock do not invalidate its neighbours'.
type stripe struct {
	stripeState
	_ [128 - unsafe.Sizeof(stripeState{})%128]byte
}

// readIndex is the view readers consult without the shard lock. All
// mutation except reader-side expiry happens on the engine's (locked,
// single-threaded) side.
type readIndex struct {
	seed maphash.Seed
	// touch records whether hits queue touch notes: only LRU recency and the
	// reinsertion hit counter read them.
	touch   bool
	stripes [readStripes]stripe
	// dramBytes is the bytes behind live regions' images that are not on
	// the store: region buffers and copies of live values (gauge
	// cache_dram_bytes). The per-key copies of promoted keys are not in it.
	dramBytes atomic.Int64

	noteMu sync.Mutex
	notes  []readNote
	spare  []readNote // swap buffer so draining never allocates

	fastHits   stats.Counter // gets answered without the shard lock
	fastMisses stats.Counter // misses answered without the shard lock
	dramHits   stats.Counter // fast hits whose image was a buffer or a copy
	storeHits  stats.Counter // fast hits whose image was the store's view
	noteDrops  stats.Counter // deferred notes shed on queue overflow
}

// dramImage returns an image over b, memory held for the index: a region
// buffer or a copy of a region's live values.
func (ri *readIndex) dramImage(b []byte) *image {
	img := new(image)
	img.p.Store(&imageBytes{b: b})
	ri.dramBytes.Add(int64(len(b)))
	return img
}

// seal moves img onto the store's view b.
func (ri *readIndex) seal(img *image, b []byte) {
	ri.retire(img)
	img.p.Store(&imageBytes{b: b, onStore: true})
}

// retire takes img's bytes, unless they are the store's, out of dramBytes.
func (ri *readIndex) retire(img *image) {
	if ib := img.p.Load(); !ib.onStore {
		ri.dramBytes.Add(-int64(len(ib.b)))
	}
}

func newReadIndex(touch bool) *readIndex {
	ri := &readIndex{
		seed:  maphash.MakeSeed(),
		touch: touch,
		notes: make([]readNote, 0, readNoteCap),
		spare: make([]readNote, 0, readNoteCap),
	}
	for i := range ri.stripes {
		ri.stripes[i].m = make(map[string]readEntry)
	}
	return ri
}

func (ri *readIndex) stripe(key string) *stripe {
	return &ri.stripes[maphash.String(ri.seed, key)%readStripes]
}

// load returns key's current entry.
func (ri *readIndex) load(key string) (readEntry, bool) {
	s := ri.stripe(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e, ok
}

// publish installs e for key, replacing any previous entry.
func (ri *readIndex) publish(key string, e readEntry) {
	s := ri.stripe(key)
	s.mu.Lock()
	s.m[key] = e
	s.mu.Unlock()
}

// on returns where key's value lies in img, if key's entry is on img. key
// and move's key are key-log slices: hashing them as bytes and indexing the
// map with string(key) copy nothing.
func (ri *readIndex) on(key []byte, img *image) (off, n uint32, ok bool) {
	s := &ri.stripes[maphash.Bytes(ri.seed, key)%readStripes]
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	if !ok || e.img != img {
		return 0, 0, false
	}
	return e.off, e.n, true
}

// move points key's entry at offset off of image to, if the entry is on
// image from.
func (ri *readIndex) move(key []byte, from, to *image, off uint32) {
	s := &ri.stripes[maphash.Bytes(ri.seed, key)%readStripes]
	s.mu.Lock()
	if e, ok := s.m[string(key)]; ok && e.img == from {
		e.img, e.off = to, off
		s.m[string(key)] = e
	}
	s.mu.Unlock()
}

// setExpire sets key's TTL deadline in place.
func (ri *readIndex) setExpire(key string, expireAt uint32) {
	s := ri.stripe(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.expireAt = expireAt
		s.m[key] = e
	}
	s.mu.Unlock()
}

// unpublish removes key from the read index.
func (ri *readIndex) unpublish(key string) {
	s := ri.stripe(key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// dropExpired is the reader-side lazy expiry: it removes key only if its
// current entry is still expired at now, so an entry a concurrent Set
// published after the reader's lookup survives.
func (ri *readIndex) dropExpired(key string, now time.Duration) {
	s := ri.stripe(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok && e.expired(now) {
		delete(s.m, key)
	}
	s.mu.Unlock()
}

// note enqueues a deferred side effect, dropping it if the queue is full.
func (ri *readIndex) note(n readNote) {
	ri.noteMu.Lock()
	if len(ri.notes) >= readNoteCap {
		ri.noteMu.Unlock()
		ri.noteDrops.Inc()
		return
	}
	ri.notes = append(ri.notes, n)
	ri.noteMu.Unlock()
}

// TryFastGet attempts to answer a Get without the shard lock. done reports
// whether the lookup was fully answered; when done is false the caller must
// retry on the locked path. On a hit the returned slice lies in a region
// image — a region buffer, a copy of values or the store's bytes — which
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
		c.reads.fastHits.Add(t.hits)
		c.reads.dramHits.Add(t.dramHits)
		c.reads.storeHits.Add(t.storeHits)
	}
	if t.misses > 0 {
		c.reads.fastMisses.Add(t.misses)
	}
}

// fastLookup is TryFastGet with the answer counted into t instead of the
// engine's counters; the caller settles t with accountFast.
func (c *Cache) fastLookup(key string, t *fastTally) (val []byte, found, done bool) {
	ri := c.reads
	if ri == nil {
		return nil, false, false
	}
	e, ok := ri.load(key)
	if ok {
		if now := c.clock.Now(); e.expired(now) {
			// Reader-side lazy expiry; the authoritative cleanup is left to a
			// mutator via the note queue.
			ri.dropExpired(key, now)
			ri.note(readNote{key: key, expire: true})
			ok = false
		} else if e.img == nil && c.cfg.TrackValues {
			// Value bytes not in memory (metadata-only insert, or a restored
			// entry not yet promoted): the locked path must perform the
			// device read.
			return nil, false, false
		}
	}
	if !ok {
		t.misses++
		return nil, false, true
	}
	if ri.touch {
		ri.note(readNote{key: key})
	}
	t.hits++
	if e.img == nil {
		return nil, true, true
	}
	ib := e.img.p.Load()
	if ib.onStore {
		t.storeHits++
	} else {
		t.dramHits++
	}
	end := e.off + e.n
	return ib.b[e.off:end:end], true, true
}

// TryFastContains answers Contains without the shard lock; done=false means
// the read index is disabled and the caller must use the locked path.
func (c *Cache) TryFastContains(key string) (found, done bool) {
	ri := c.reads
	if ri == nil {
		return false, false
	}
	e, ok := ri.load(key)
	if !ok {
		return false, true
	}
	if now := c.clock.Now(); e.expired(now) {
		ri.dropExpired(key, now)
		ri.note(readNote{key: key, expire: true})
		return false, true
	}
	return true, true
}

// drainReadNotes applies the deferred side effects accumulated by the fast
// path. It must run under the shard write lock (the engine's single-threaded
// context): it touches the authoritative index, the eviction order, and the
// expiry counters. Called at the top of every locked operation so note
// processing points are deterministic under a per-shard replay.
func (c *Cache) drainReadNotes() {
	ri := c.reads
	if ri == nil {
		return
	}
	ri.noteMu.Lock()
	if len(ri.notes) == 0 {
		ri.noteMu.Unlock()
		return
	}
	batch := ri.notes
	ri.notes = ri.spare[:0]
	ri.noteMu.Unlock()

	now := c.clock.Now()
	for _, n := range batch {
		e, ok := c.index[n.key]
		if !ok {
			continue
		}
		if n.expire {
			// Re-check: a Set after the reader's observation may have
			// replaced the item with a live one — only remove if the entry
			// is still past its deadline.
			if e.expireAt != 0 && now >= time.Duration(e.expireAt)*time.Second {
				delete(c.index, n.key)
				if m := &c.regions[e.region]; m.live > 0 {
					m.live--
				}
				c.expirations.Inc()
				ri.unpublish(n.key)
			}
			continue
		}
		// Touch: the recency and reinsertion-counter effects of a classic
		// locked Get.
		if c.cfg.ReinsertHits > 0 && e.hits < ^uint8(0) {
			e.hits++
			c.index[n.key] = e
		}
		if c.cfg.Policy == LRU {
			if m := &c.regions[e.region]; m.elem != nil && m.elem != c.order.Front() {
				c.order.MoveToFront(m.elem)
				c.orderVer++
			}
		}
	}
	ri.spare = batch[:0]
}

// promoteRead makes key servable lock-free after val, its sealed item e, was
// read and verified. The entry points into the region's store image, which
// a restored region gets from the store's view on its first promotion. Over
// a store that lends no view the key gets an image of its own over a copy
// of val: the index never keeps the caller's buffer. No-op when the entry
// is servable already.
func (c *Cache) promoteRead(key string, e entry, val []byte) {
	ri := c.reads
	if ri == nil {
		return
	}
	if cur, ok := ri.load(key); ok && cur.img != nil {
		return
	}
	m := &c.regions[e.region]
	if m.img == nil {
		if b, ok := c.storeView(int(e.region)); ok {
			m.img = new(image)
			m.img.p.Store(&imageBytes{b: b, onStore: true})
		}
	}
	re := readEntry{n: e.valLen, expireAt: e.expireAt}
	if m.img != nil && m.img.p.Load().onStore {
		re.img, re.off = m.img, e.offset+itemHeaderSize+uint32(e.keyLen)
	} else {
		re.img = new(image)
		re.img.p.Store(&imageBytes{b: bytes.Clone(val)})
	}
	ri.publish(key, re)
}

// FastReadStats reports the lock-free path's counters: gets answered without
// the shard lock (hits, misses) and deferred notes dropped on overflow.
// Zeros when the read index is disabled.
func (c *Cache) FastReadStats() (fastHits, fastMisses, noteDrops uint64) {
	if c.reads == nil {
		return 0, 0, 0
	}
	return c.reads.fastHits.Load(), c.reads.fastMisses.Load(), c.reads.noteDrops.Load()
}
