package cache

import (
	"container/list"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"znscache/internal/stats"
)

// The failure budget (DESIGN.md §9). A store write, read or evict is retried
// maxRetries times, backing off on the virtual clock from retryBackoff and
// doubling. A region whose operations exhaust their retries quarantineAfter
// times is quarantined; one whose evict exhausts them is quarantined at once.
const (
	maxRetries      = 2
	retryBackoff    = 100 * time.Microsecond
	quarantineAfter = 3
)

// regionState is the lifecycle of a region slot (DESIGN.md, "Region
// lifecycle").
type regionState uint8

const (
	regionFree regionState = iota
	regionOpen
	regionFlushing
	regionSealed
	// regionQuarantined withdraws a region whose store kept failing: it is
	// never allocated, flushed to, or evicted again. The capacity loss is
	// the price of keeping the cache serving around a bad zone.
	regionQuarantined
)

// regionMeta tracks one region slot.
type regionMeta struct {
	state     regionState
	keys      keyLog // insertion order, for eviction cleanup
	fill      int64  // bytes appended
	flushDone time.Duration
	openedAt  time.Duration
	elem      *list.Element // position in eviction order (sealed/flushing)
	buf       []byte        // non-nil only while open/flushing and TrackValues
	kept      bool          // the store kept buf at the flush (RegionKeeper)
	fails     int           // exhausted-retry failures; quarantine trigger
}

// regionTable owns the region lifecycle: every slot's state, the free list,
// the in-flight flushes, the eviction order and the region buffers. Its
// transitions are their only writers, and each panics on a region in a state
// it does not accept. The engine drops a region's keys before they go.
type regionTable struct {
	meta []regionMeta
	// open is the open region; not open only once a roll found no region to
	// open, every other one being quarantined.
	open        int
	free        []int      // free regions; the last is opened next
	inflight    []int      // flushing regions, oldest first
	maxInflight int        // flushes in flight before a roll waits
	order       *list.List // eviction order: front = MRU, back = victim
	lru         bool       // a hit moves its region to the order's front
	// orderVer counts mutations of the eviction order; coldSet caches, per
	// orderVer, which regions sit in the cold tail that cold reports on. GC
	// probes ask about many regions between order mutations, so the
	// O(regions) tail walk amortizes to O(1).
	orderVer uint64
	coldVer  uint64
	coldSet  []bool

	bufSize int64 // region buffer size; 0 without TrackValues
	// spare holds region buffers whose flush has completed; openNext takes
	// from it before allocating. Every buffer is held by the open region, an
	// in-flight flush, or this list, so at most maxInflight+1 ever exist.
	// With the read index on it stays empty (release).
	spare [][]byte
	// bufBytes is the bytes of the region buffers held: open, in flight and
	// spare. Without the read index buffers are recycled and it only grows to
	// its bound; with it a completed flush lets its buffer go, to the
	// read-index images that may still point into it.
	bufBytes    atomic.Int64
	idx         *index
	quarantines stats.Counter // regions withdrawn after repeated failures
}

// newRegionTable returns a table of n free regions.
func newRegionTable(n, maxInflight int, lru bool, bufSize int64, idx *index) *regionTable {
	r := &regionTable{meta: make([]regionMeta, n), maxInflight: maxInflight, order: list.New(), lru: lru,
		coldSet: make([]bool, n), bufSize: bufSize, idx: idx}
	for i := n - 1; i >= 0; i-- {
		r.free = append(r.free, i)
	}
	return r
}

// slot returns region id once the calling transition accepts its state.
func (r *regionTable) slot(id int, from ...regionState) *regionMeta {
	m := &r.meta[id]
	if !slices.Contains(from, m.state) {
		panic(fmt.Sprintf("cache: region %d: no transition from state %d", id, m.state))
	}
	return m
}

// openNext is free→open: the last free region opens at at, with a buffer when
// values are tracked. The free list must not be empty.
func (r *regionTable) openNext(at time.Duration) {
	id := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	m := r.slot(id, regionFree)
	m.state = regionOpen
	m.openedAt = at
	if r.bufSize > 0 {
		// A recycled buffer keeps an earlier region's bytes past fill; nothing
		// reads past fill (index offsets stay below it, item checksums guard
		// every read), so it is not zeroed.
		if n := len(r.spare); n > 0 {
			m.buf = r.spare[n-1]
			r.spare = r.spare[:n-1]
		} else {
			m.buf = make([]byte, r.bufSize)
			r.bufBytes.Add(r.bufSize)
		}
		if r.idx.images != nil {
			r.idx.setImage(id, &image{b: m.buf})
		}
	}
	r.open = id
}

// flush is open→flushing: region id's write lands at done. It reports whether
// the flush must land at once: with no buffer beside the open one, flushes
// are synchronous.
func (r *regionTable) flush(id int, done time.Duration) (sync bool) {
	m := r.slot(id, regionOpen)
	m.state = regionFlushing
	m.flushDone = done
	m.elem = r.order.PushFront(id)
	r.orderVer++
	r.inflight = append(r.inflight, id)
	return r.maxInflight == 0
}

// failFlush is open→free, or open→quarantined once the region has used up its
// failure budget.
func (r *regionTable) failFlush(id int) {
	m := r.slot(id, regionOpen)
	if r.charge(id) {
		r.quarantine(id)
		return
	}
	r.toFree(id, m)
}

// seal is flushing→sealed: the flush landed and reads go to the store.
func (r *regionTable) seal(id int) {
	m := r.slot(id, regionFlushing)
	m.state = regionSealed
	i := slices.Index(r.inflight, id)
	r.inflight = slices.Delete(r.inflight, i, i+1)
	if r.idx.images != nil {
		img := &image{onStore: true} // no bytes, unless the store kept the buffer
		if m.kept {
			img.b = m.buf
		}
		r.idx.setImage(id, img)
	}
	r.release(m)
}

// victim takes the order's back, flushing or sealed, out of the order for
// eviction; ok is false when the order is empty.
func (r *regionTable) victim() (id int, ok bool) {
	back := r.order.Back()
	if back == nil {
		return 0, false
	}
	id = back.Value.(int)
	r.leave(&r.meta[id])
	return id, true
}

// evicted is sealed→free once the store evicted the victim.
func (r *regionTable) evicted(id int) { r.toFree(id, r.slot(id, regionSealed)) }

// drop is sealed→free without a store call: a co-design drop, or Restore's
// repair of a region the store holds nothing of.
func (r *regionTable) drop(id int) {
	m := r.slot(id, regionSealed)
	r.leave(m)
	r.toFree(id, m)
}

// quarantine is open or sealed→quarantined, for good.
func (r *regionTable) quarantine(id int) {
	m := r.slot(id, regionOpen, regionSealed)
	r.leave(m)
	r.empty(id)
	m.state = regionQuarantined
	r.quarantines.Inc()
}

// charge counts an exhausted-retry failure against region id and reports
// whether it has used up its failure budget.
func (r *regionTable) charge(id int) bool {
	r.meta[id].fails++
	return r.meta[id].fails >= quarantineAfter
}

// toFree ends region id's generation and puts it on the free list.
func (r *regionTable) toFree(id int, m *regionMeta) {
	r.empty(id)
	m.state = regionFree
	r.free = append(r.free, id)
}

// empty ends region id's generation: its content, image and buffer go.
// A reader that already loaded the image keeps it, and its bytes, alive.
func (r *regionTable) empty(id int) {
	m := &r.meta[id]
	r.release(m)
	m.keys.reset()
	m.fill = 0
	if r.idx.images != nil {
		r.idx.setImage(id, nil)
	}
}

// release lets go of a region's buffer, if it holds one, once the region no
// longer serves reads from DRAM: its flush completed (reads go to the
// store), or failed (its keys are dropped). Without the read index the
// buffer goes to the spare list. With it the buffer is left to the
// collector: a read-index image, or a value a reader still holds, may point
// into it, and its bytes must never change. A store that kept the buffer
// (RegionKeeper) holds it as the region's bytes from the flush on.
func (r *regionTable) release(m *regionMeta) {
	if m.buf == nil {
		return
	}
	if !r.idx.shared {
		r.spare = append(r.spare, m.buf)
	} else {
		r.bufBytes.Add(-int64(len(m.buf)))
	}
	m.buf = nil
}

// leave takes a region out of the eviction order, if it is in it.
func (r *regionTable) leave(m *regionMeta) {
	if m.elem != nil {
		r.order.Remove(m.elem)
		r.orderVer++
		m.elem = nil
	}
}

// touch is a hit on region id: under LRU it moves to the order's front.
func (r *regionTable) touch(id int) {
	if m := &r.meta[id]; r.lru && m.elem != nil && m.elem != r.order.Front() {
		r.order.MoveToFront(m.elem)
		r.orderVer++
	}
}

// full reports whether a roll must wait for the oldest flush to land.
func (r *regionTable) full() bool {
	return len(r.inflight) > 0 && len(r.inflight) >= r.maxInflight
}

// sealed reports whether region id is sealed and in the eviction order.
func (r *regionTable) sealed(id int) bool {
	return id >= 0 && id < len(r.meta) && r.meta[id].state == regionSealed && r.meta[id].elem != nil
}

// coldFrac is the share of the eviction order, counted from the victim end,
// whose sealed regions cold reports as cold.
const coldFrac = 0.3

// cold reports whether region id is sealed and sits in the coldest coldFrac
// of the eviction order: the LRU tail, or under FIFO the oldest regions.
func (r *regionTable) cold(id int) bool {
	if !r.sealed(id) {
		return false
	}
	// The cold tail only changes when the eviction order does, but the GC
	// probes every candidate region between mutations. Rebuild the
	// membership set once per order version and answer each probe with an
	// O(1) lookup instead of walking the list from the back. The empty set
	// a new table starts with is the empty order's.
	if r.coldVer != r.orderVer {
		clear(r.coldSet)
		limit := int(float64(r.order.Len()) * coldFrac)
		for e, i := r.order.Back(), 0; e != nil && i < limit; e, i = e.Prev(), i+1 {
			r.coldSet[e.Value.(int)] = true
		}
		r.coldVer = r.orderVer
	}
	return r.coldSet[id]
}

// save records the table in s.
func (r *regionTable) save(s *snapshotData) {
	s.Open = r.open
	s.Free = slices.Clone(r.free)
	s.Regions = make([]snapRegion, len(r.meta))
	for i := range r.meta {
		m := &r.meta[i]
		s.Regions[i] = snapRegion{State: m.state, Appended: m.keys.appended, Fill: m.fill}
	}
	for e := r.order.Front(); e != nil; e = e.Next() {
		s.Order = append(s.Order, e.Value.(int))
	}
}

// load replaces the table with a validated snapshot's. A flushing region
// loads sealed: the simulation's stores complete the writes they
// acknowledged. The open region reopens empty at at: its buffer was DRAM.
// Key logs load empty: Restore logs each key it indexes.
func (r *regionTable) load(s *snapshotData, at time.Duration) {
	r.empty(r.open)
	for i := range r.meta {
		m, src := &r.meta[i], &s.Regions[i]
		m.state = src.State
		if m.state == regionFlushing {
			m.state = regionSealed
		}
		m.fill = src.Fill
	}
	for _, id := range s.Order {
		r.meta[id].elem = r.order.PushBack(id)
	}
	r.orderVer++ // cold must not answer from the empty order's set
	r.empty(s.Open)
	r.meta[s.Open].state = regionFree
	r.free = append(slices.Clone(s.Free), s.Open)
	r.openNext(at)
}
