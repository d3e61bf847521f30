package cache

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"znscache/internal/stats"
)

// This file implements the engine's index and the lock-free read path
// (DESIGN.md §12). The index is keyed by hash, as Navy's is: a table of
// stripes, each an open-addressed table of 32-byte slots that hold a key's
// 64-bit hash and its entry — where the item lies on flash, where its value
// lies in memory and its TTL deadline. The key itself is not stored. Where
// the item's bytes are in memory or being read anyway, the reader checks the
// item header's key length and key bytes against the key it looked up, and a
// mismatch is a miss (itemIs). The metadata-only engine (TrackValues off),
// Contains and Delete have no item bytes at hand and trust the hash. Two
// keys share a slot only when their 64-bit hashes are equal: among n keys
// that happens with probability about n²/2⁶⁵, under 10⁻⁷ at 2²⁰ keys. Keys
// for snapshots come from the region key logs, which hold every indexed key
// (eachEntry).
//
// The engine owns the table: every write happens on the engine's
// single-threaded side, under the shard write lock, and the engine reads its
// own entries without a stripe lock, because no other goroutine writes them.
//
// With Config.ReadIndex on, concurrent readers consult the same table
// without the shard lock. The contract:
//
//   - A reader's lookup is one stripe read lock around one probe. Every
//     engine write takes its stripe's write lock and replaces one slot whole
//     (or moves slots, or doubles the table), so a reader always copies out a
//     complete entry. The bytes behind an image are never written again: a
//     region buffer is appended to only past what its entries point at and is
//     never recycled, and a store's view is immutable (RegionViewer). A sealed
//     region over a store that lends no view has an image without bytes: its
//     reads take the locked path, which reads the store.
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
// Without Config.ReadIndex no reader exists: the table has one stripe and
// the engine takes no stripe lock.

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

// readNote is one deferred side effect observed by the lock-free path, for
// the key of index hash h.
type readNote struct {
	h      uint64
	expire bool // true: TTL expiry observed; false: touch (recency)
}

// readNoteCap bounds the deferred-note queue. Overflow drops notes (counted
// in noteDrops): under a read-only storm with no mutator to drain the queue,
// recency hints are shed rather than memory grown.
const readNoteCap = 4096

// readStripes is the stripe count with the read index on. A key's stripe is
// fixed by its hash, so readers of different keys rarely meet on one lock.
const readStripes = 64

// slot is one index record, 32 bytes: a key's hash and its entry.
type slot struct {
	hash uint64 // 0 marks an empty slot; the index hash is never 0
	e    entry
}

// table is an open-addressed hash table of slots. A hash's home slot is its
// top bits (a stripe is picked by its low bits); lookups probe linearly from
// there to the first empty slot. Deletion shifts the rest of the probe run
// back, so no tombstones build up, and the table doubles before it is more
// than maxLoadNum/maxLoadDen full.
type table struct {
	slots []slot // a power of two long, or nil
	shift uint8  // 64 - log2(len(slots)): h>>shift is h's home slot
	n     int    // occupied slots
}

const (
	minSlots   = 8
	maxLoadNum = 3
	maxLoadDen = 4
)

// find returns the index of h's slot, or -1 when h has no entry.
func (t *table) find(h uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].hash {
		case h:
			return i
		case 0:
			return -1
		}
	}
}

// get returns h's entry.
func (t *table) get(h uint64) (entry, bool) {
	if i := t.find(h); i >= 0 {
		return t.slots[i].e, true
	}
	return entry{}, false
}

// set installs e as h's entry and returns the entry it replaced, if any.
func (t *table) set(h uint64, e entry) (old entry, replaced bool) {
	if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for t.slots[i].hash != h && t.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	if t.slots[i].hash == 0 {
		t.n++
	} else {
		old, replaced = t.slots[i].e, true
	}
	t.slots[i] = slot{hash: h, e: e}
	return old, replaced
}

// removeAt deletes the entry in slot i.
func (t *table) removeAt(i int) {
	mask := len(t.slots) - 1
	// Backward shift: a later slot of the run moves into the hole at i when
	// its home lies at or before i, that is when it sits at least as far from
	// its home as from the hole.
	for j := (i + 1) & mask; t.slots[j].hash != 0; j = (j + 1) & mask {
		if home := int(t.slots[j].hash >> t.shift); (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// grow doubles the table, or makes its first minSlots slots.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]slot, max(2*len(old), minSlots))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.hash == 0 {
			continue
		}
		i := int(s.hash >> t.shift)
		for t.slots[i].hash != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

type stripeState struct {
	mu sync.RWMutex
	table
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
	// hashMask is ANDed into every key hash. It keeps all 64 bits; only the
	// collision oracle narrows it, so that keys share hashes all the time.
	hashMask uint64
	// touch records whether hits queue touch notes: only LRU recency reads
	// them.
	touch   bool
	stripes []stripe // readStripes when shared, else one
	// dramBytes is the bytes of the region buffers behind images: the open
	// and flushing regions' (gauge cache_dram_bytes).
	dramBytes atomic.Int64
	// indexBytes is what the index holds per key: its slots and the capacity
	// of the region key logs' buffers (gauge cache_index_bytes).
	indexBytes atomic.Int64

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
	ix := &index{shared: shared, touch: touch, seed: maphash.MakeSeed(), hashMask: ^uint64(0)}
	n := 1
	if shared {
		n = readStripes
		ix.notes = make([]readNote, 0, readNoteCap)
		ix.spare = make([]readNote, 0, readNoteCap)
	}
	ix.stripes = make([]stripe, n)
	return ix
}

// hash returns key's index hash, computed once per operation: its low bits
// pick the stripe and its top bits the home slot.
func (ix *index) hash(key string) uint64 { return ix.nonzero(maphash.String(ix.seed, key)) }

// hashLog is hash for a key-log slice; equal bytes hash equal.
func (ix *index) hashLog(key []byte) uint64 { return ix.nonzero(maphash.Bytes(ix.seed, key)) }

// nonzero masks h and moves the empty slot's mark, 0, to 1.
func (ix *index) nonzero(h uint64) uint64 {
	if h &= ix.hashMask; h != 0 {
		return h
	}
	return 1
}

// stripe returns the stripe of hash h.
func (ix *index) stripe(h uint64) *stripe {
	if !ix.shared {
		return &ix.stripes[0]
	}
	return &ix.stripes[h%readStripes]
}

// get is the engine's read of h's entry. It takes no stripe lock: only the
// engine writes.
func (ix *index) get(h uint64) (entry, bool) { return ix.stripe(h).get(h) }

// lookup is get by key, and returns key's hash for a write that follows.
func (ix *index) lookup(key string) (uint64, entry, bool) {
	h := ix.hash(key)
	e, ok := ix.get(h)
	return h, e, ok
}

// lookupLog is lookup for a key-log slice.
func (ix *index) lookupLog(key []byte) (uint64, entry, bool) {
	h := ix.hashLog(key)
	e, ok := ix.get(h)
	return h, e, ok
}

// load is a reader's lookup, under the stripe's read lock.
func (ix *index) load(h uint64) (entry, bool) {
	s := ix.stripe(h)
	s.mu.RLock()
	e, ok := s.get(h)
	s.mu.RUnlock()
	return e, ok
}

// put installs e as the entry of hash h and returns the entry it replaced,
// if any.
func (ix *index) put(h uint64, e entry) (old entry, replaced bool) {
	s := ix.stripe(h)
	n := len(s.slots)
	if ix.shared {
		s.mu.Lock()
		old, replaced = s.set(h, e)
		s.mu.Unlock()
	} else {
		old, replaced = s.set(h, e)
	}
	if len(s.slots) != n {
		ix.indexBytes.Add(int64(len(s.slots)-n) * int64(unsafe.Sizeof(slot{})))
	}
	return old, replaced
}

// anyRegion, as takeIn's region, matches an entry in any region.
const anyRegion = ^uint32(0)

// take removes the entry of hash h and returns it.
func (ix *index) take(h uint64) (entry, bool) { return ix.takeIn(h, anyRegion) }

// takeIn removes the entry of hash h and returns it if it points into region
// id: eviction's one probe per logged key.
func (ix *index) takeIn(h uint64, id uint32) (entry, bool) {
	s := ix.stripe(h)
	if ix.shared {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	i := s.find(h)
	if i < 0 || (id != anyRegion && s.slots[i].e.region != id) {
		return entry{}, false
	}
	e := s.slots[i].e
	s.removeAt(i)
	return e, true
}

// len returns the number of entries.
func (ix *index) len() int {
	n := 0
	for i := range ix.stripes {
		n += ix.stripes[i].n
	}
	return n
}

// eachEntry calls fn for every entry and its key, region by region in id
// order and within a region in key-log order, so two walks of an unchanged
// engine agree. The index keeps no keys, but the key logs hold every indexed
// key (the region-live invariant): keepLive, applied to a copy of each log,
// leaves exactly the keys of the entries pointing into its region.
func (c *Cache) eachEntry(fn func(key string, e entry)) {
	var buf []byte
	for id := range c.regions.meta {
		kl := &c.regions.meta[id].keys
		if kl.len() == 0 {
			continue
		}
		live := keyLog{data: append(buf[:0], kl.data...), n: kl.n, dead: kl.dead}
		c.keepLive(id, &live)
		live.each(func(kb []byte) bool {
			e, _ := c.idx.get(c.idx.hashLog(kb))
			fn(string(kb), e)
			return true
		})
		buf = live.data
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
	h := ix.hash(key)
	e, ok := ix.load(h)
	if ok && e.expired(c.clock.Now()) {
		// The engine deletes the entry when it drains the note.
		ix.note(readNote{h: h, expire: true})
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
		// Value bytes not in memory (a restored entry not yet promoted, or a
		// region sealed over a store that lends no view): the locked path
		// must perform the device read.
		return nil, false, false
	}
	if ib != nil && !itemIs(ib.b[e.offset:], key) {
		// Another key's item under key's hash: a miss, and the entry stays
		// the other key's.
		t.misses++
		return nil, false, true
	}
	if ix.touch {
		ix.note(readNote{h: h})
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
// the read index is disabled and the caller must use the locked path. Like
// Contains it reads no item bytes, so it trusts the key's hash.
func (c *Cache) TryFastContains(key string) (found, done bool) {
	ix := c.idx
	if !ix.shared {
		return false, false
	}
	h := ix.hash(key)
	e, ok := ix.load(h)
	if ok && e.expired(c.clock.Now()) {
		ix.note(readNote{h: h, expire: true})
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
		e, ok := ix.get(n.h)
		if !ok {
			continue
		}
		if n.expire {
			// Re-check: a Set after the reader's observation may have
			// replaced the item with a live one — only remove if the entry
			// is still past its deadline.
			if e.expired(now) {
				c.expire(n.h)
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
