// Package cache implements a log-structured flash cache engine modelled on
// CacheLib's block cache ("Navy"), the engine the paper holds constant
// across all four schemes (§2.1):
//
//   - Flash space is partitioned into fixed-size regions. New objects are
//     packed into an in-memory region buffer; when it fills, the whole
//     region is flushed to the backing store in one large I/O.
//   - A DRAM index maps keys to (region, offset, size).
//   - Eviction is region-granular: when no free region remains, an entire
//     region (LRU or FIFO) is dropped — every key it holds leaves the index
//     at once. This amortizes flash GC cost but, with zone-sized regions,
//     throws away ~1 GiB of possibly-hot objects in one stroke (the
//     Zone-Cache hit-ratio cliff of §4.2).
//   - Flushes pipeline: the engine holds at most BufferMemory/RegionSize
//     region buffers, and every one but the filling buffer may be in
//     flight at once. Small regions afford several buffers and overlap
//     device writes; a zone-sized region affords one, serializing fill and
//     flush — the paper's "coarse-grained parallelism" penalty (§3.2).
//
// The backing store is abstracted as a RegionStore; the four schemes plug
// in internal/store (Block/File/Zone) and internal/middle (Region).
package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// RegionStore is the persistence backend for regions. Implementations
// return simulated latencies; the engine advances its clock with them.
type RegionStore interface {
	// NumRegions is how many regions the store can hold.
	NumRegions() int
	// RegionSize is the fixed region size in bytes (sector-aligned).
	RegionSize() int64
	// WriteRegion persists a full region. data may be nil (metadata-only).
	// Implementations copy data before returning and never retain it: the
	// engine recycles the buffer for another region once the flush
	// completes.
	WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error)
	// ReadRegion reads n bytes at sector-aligned offset off within region
	// id into p (p may be nil for a metadata-only read of n bytes).
	ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error)
	// EvictRegion tells the store the region's content is dead. The next
	// WriteRegion with the same id replaces it.
	EvictRegion(now time.Duration, id int) (time.Duration, error)
}

// SyncCoster is an optional RegionStore extension, consulted once after
// each WriteRegion: WriteSyncCost reports the portion of that flush which
// burned the flusher thread synchronously — filesystem page-cache copies
// and per-block index updates, or a device GC stall inside the write
// syscall — as opposed to DMA device time that overlaps with other work.
// The engine charges it to the insertion path even when the device write
// itself is pipelined.
type SyncCoster interface {
	WriteSyncCost() time.Duration
}

// RegionViewer is an optional RegionStore extension, consulted with the read
// index on when a flush completes and when a restored region is first read:
// RegionView lends region id's bytes in place, read-only, with ok=false when
// the store cannot. The bytes must never change while anyone holds them; the
// read index serves values out of them without a lock (DESIGN.md §12).
type RegionViewer interface {
	RegionView(id int) ([]byte, bool)
}

// Policy selects the region eviction order.
type Policy uint8

// Eviction policies over regions.
const (
	LRU Policy = iota
	FIFO
)

// Errors returned by the engine.
var (
	ErrItemTooLarge = errors.New("cache: item larger than region or key too long")
	ErrBadConfig    = errors.New("cache: invalid configuration")
	ErrEmptyKey     = errors.New("cache: empty key")
	errNoRegion     = errors.New("cache: no evictable region")
)

// itemHeaderSize is the per-item on-flash overhead (lengths + checksum),
// mirroring Navy's entry header.
const itemHeaderSize = 16

// maxKeyLen is the longest key: the item header and the key log hold a key's
// length as a uint16.
const maxKeyLen = math.MaxUint16

// CPUModel is the software-side cost model. Flash dominates end-to-end
// latency, but index maintenance under the shared lock is what turns
// zone-sized evictions into insertion-time spikes (Figure 3).
type CPUModel struct {
	IndexLookup  time.Duration // per Get/exists check
	IndexInsert  time.Duration // per Set index update
	IndexRemove  time.Duration // per single-key delete
	AppendItem   time.Duration // per item appended to the region buffer
	AppendPerKiB time.Duration // buffer memcpy cost per KiB
	// EvictPerKey is the cost of removing one key during a region
	// eviction. It is far above IndexRemove: eviction iterates the region
	// under the shared index lock while other threads contend for it, and
	// each removal also updates allocator and policy state — the mechanism
	// the paper blames for the Figure 3 insertion-time spikes ("eviction
	// operations in other threads, which involve lock controls for the
	// shared index").
	EvictPerKey time.Duration
}

// DefaultCPUModel returns costs typical of a sharded in-memory index.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		IndexLookup:  time.Microsecond,
		IndexInsert:  1500 * time.Nanosecond,
		IndexRemove:  1500 * time.Nanosecond,
		AppendItem:   500 * time.Nanosecond,
		AppendPerKiB: 50 * time.Nanosecond,
		EvictPerKey:  25 * time.Microsecond,
	}
}

// Config parameterizes the engine.
type Config struct {
	Store RegionStore
	// Policy picks LRU (default) or FIFO region eviction.
	Policy Policy
	// Admission builds the engine's own admission policy instance, seeded
	// with AdmissionSeed and bound to the engine's clock; nil admits
	// everything. An instance is stateful and belongs to one engine, so each
	// engine New or Restore makes builds a fresh one.
	Admission AdmissionFactory
	// AdmissionSeed seeds the policy instance (decorrelate shards with
	// ShardSeed).
	AdmissionSeed uint64
	// BufferMemory bounds DRAM spent on region buffers: the engine holds at
	// most BufferMemory/RegionSize of them (with TrackValues; none without).
	// One buffer is always filling; the rest may hold in-flight flushes, so
	// a budget of exactly one region makes flushes synchronous. A buffer is
	// recycled for the next open region once its flush completes. Default
	// 64 MiB.
	BufferMemory int64
	// TrackValues keeps payload bytes in region buffers so Get returns
	// real data (requires a data-storing device for sealed regions).
	TrackValues bool
	// CPU overrides the software cost model; zero value = defaults.
	CPU CPUModel
	// Clock is the virtual clock; a fresh one is created if nil.
	Clock *sim.Clock
	// Trace receives admission, seal, and eviction events; nil (the default)
	// disables tracing at the cost of one pointer test per event site.
	Trace *obs.Tracer
	// SkipChecksum disables on-flash checksum verification on sealed-region
	// reads. Only the crash harness's mutation check sets it: it proves the
	// checksum is what stands between corrupt recovery metadata and wrong
	// data being served.
	SkipChecksum bool
	// ReadIndex enables the lock-free read path (readindex.go): the engine's
	// index is split into 64 stripes whose writes take a stripe lock, each
	// entry also records where its value lies in memory (its region's
	// buffer, later the store's view of the region), and
	// TryFastGet/TryFastContains answer lookups against the index under one
	// stripe read lock instead of the shard lock. Region buffers are then
	// never recycled. Off by default — single-threaded replays keep the exact
	// classic accounting; the serving layer opts in.
	ReadIndex bool
	// Spans, when non-nil, samples wall-clock engine stage timings
	// (fast/locked gets, set publish, region flush, store I/O) into the
	// recorder. The virtual clock is never touched, so replay determinism
	// is unaffected; nil costs one pointer test per site.
	Spans *obs.SpanRecorder
}

// fillLogCap bounds the Figure 3 fill log to the most recent records, so long
// runs stop growing memory linearly. 4096 records cover the longest harness
// experiment (~1300 region fills in Figure 3's small-region arm) with room to
// spare; FillCount and EvictionOnset stay exact regardless.
const fillLogCap = 4096

// entry is one index record, 24 bytes: where an item lives, where its
// value lies in memory, and its TTL deadline. The index keys it by the key's
// hash; the key, and so its length, is the caller's, so it is not stored.
type entry struct {
	// img is the region image the value lies in; nil when its bytes are not
	// in memory (the read index is off, an insert without TrackValues, or a
	// restored entry not yet promoted by a verified sealed read). With
	// TrackValues on, such an entry sends lock-free reads to the locked path.
	img    *image
	region uint32 // id of the region the item lives in
	offset uint32 // item start within region
	valLen uint32
	// expireAt is the TTL deadline rounded up to a whole virtual-clock
	// second, from which on the item is dead (0 = no TTL). Second
	// granularity keeps the entry compact, as CacheLib does.
	expireAt uint32
}

// valueOff returns where the value starts in its region: past the item
// header and the key.
func (e entry) valueOff(keyLen int) uint32 {
	return e.offset + itemHeaderSize + uint32(keyLen)
}

func (e entry) itemSize(keyLen int) int64 {
	return itemHeaderSize + int64(keyLen) + int64(e.valLen)
}

// expired reports whether the entry's TTL deadline has passed at virtual
// time now.
func (e entry) expired(now time.Duration) bool {
	return e.expireAt != 0 && now >= time.Duration(e.expireAt)*time.Second
}

// FillRecord is one entry of the Figure 3 log: how long it took to fill a
// region buffer, including any stalls from flushing and eviction.
type FillRecord struct {
	Seq      uint64        `json:"seq"`
	Duration time.Duration `json:"duration_ns"`
	Evicted  bool          `json:"evicted"` // an eviction was needed to open this region's successor
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Gets, Sets, Deletes    uint64
	Hits, Misses           uint64
	HitRatio               float64
	Evictions, Flushes     uint64
	Reinsertions           uint64 // always 0: the engine does not reinsert; benchmark/layers.go reads it
	Expirations            uint64
	CoDesignDrops          uint64
	AdmitRejects           uint64
	HostWriteBytes         uint64
	StoreRetries           uint64
	Quarantined            uint64
	LostKeys               uint64
	RestoreDrops           uint64
	GetLatency, SetLatency stats.HistSnapshot
	SimulatedTime          time.Duration
}

// Cache is the engine. Its methods are not safe for concurrent use: the
// simulation is driven single-threaded for determinism, with contention
// modelled through the CPU cost model instead of real lock waits.
type Cache struct {
	cfg   Config
	store RegionStore
	clock *sim.Clock
	cpu   CPUModel

	// idx is the key index (readindex.go). Only the engine writes it; with
	// Config.ReadIndex, lock-free readers read it too.
	idx *index
	// regions owns the region lifecycle (region.go).
	regions *regionTable
	seq     uint64 // fill sequence counter

	// fillLog is a bounded ring over the most recent FillRecords (cap
	// fillLogCap). fillStart is the ring's oldest slot once it has wrapped;
	// fillCount and firstEvictSeq summarize the whole history so trimming
	// never loses the eviction-onset answer.
	fillLog       []FillRecord
	fillStart     int
	fillCount     uint64
	firstEvictSeq uint64 // noEvictSeq until the first Evicted record

	// readBuf pools the sector-aligned scratch buffers sealed-region Gets
	// read into when the caller supplied no buffer that fits. The payload is
	// copied out before the buffer is returned, so pooling is invisible to
	// callers; it removes the largest per-Get allocation (up to a region of
	// bytes per lookup).
	readBuf sync.Pool

	admission Admission         // built by cfg.Admission for this engine
	trace     *obs.Tracer       // nil when tracing is disabled
	spans     *obs.SpanRecorder // nil when span sampling is disabled

	// metrics
	hitRatio    stats.HitRatio
	getLat      *stats.Histogram
	setLat      *stats.Histogram
	sets        stats.Counter
	gets        stats.Counter
	dels        stats.Counter
	evicts      stats.Counter
	drops       stats.Counter
	expirations stats.Counter
	flushes     stats.Counter
	rejects     stats.Counter
	hostBytes   stats.Counter
	retriesCtr  stats.Counter // store operations retried after an error
	lostKeys    stats.Counter // keys dropped because their bytes became unreachable
	restoreDrop stats.Counter // snapshot entries dropped by the Restore repair pass
	compactions stats.Counter // key logs rewritten to their live keys
}

// New builds an engine over the given store.
func New(cfg Config) (*Cache, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrBadConfig)
	}
	if n := cfg.Store.NumRegions(); n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 regions, store has %d", ErrBadConfig, n)
	}
	if cfg.Store.RegionSize() <= 0 || cfg.Store.RegionSize()%device.SectorSize != 0 {
		return nil, fmt.Errorf("%w: region size %d", ErrBadConfig, cfg.Store.RegionSize())
	}
	if cfg.BufferMemory == 0 {
		cfg.BufferMemory = 64 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewClock()
	}
	if (cfg.CPU == CPUModel{}) {
		cfg.CPU = DefaultCPUModel()
	}
	if cfg.Admission == nil {
		cfg.Admission = AdmitAll{}
	}
	// One buffer is always the one being filled; only the remainder can
	// hold in-flight flushes. A single zone-sized buffer therefore flushes
	// synchronously — the Zone-Cache DRAM-budget penalty of §3.2.
	maxInflight := int(cfg.BufferMemory/cfg.Store.RegionSize()) - 1
	if maxInflight < 0 {
		return nil, fmt.Errorf("%w: BufferMemory %d below region size %d",
			ErrBadConfig, cfg.BufferMemory, cfg.Store.RegionSize())
	}
	var bufSize int64
	if cfg.TrackValues {
		bufSize = cfg.Store.RegionSize()
	}
	idx := newIndex(cfg.ReadIndex, cfg.Policy == LRU)
	c := &Cache{
		cfg:           cfg,
		store:         cfg.Store,
		clock:         cfg.Clock,
		cpu:           cfg.CPU,
		idx:           idx,
		regions:       newRegionTable(cfg.Store.NumRegions(), maxInflight, cfg.Policy == LRU, bufSize, idx),
		getLat:        stats.NewHistogram(),
		setLat:        stats.NewHistogram(),
		firstEvictSeq: noEvictSeq,
		admission:     cfg.Admission.New(AdmissionParams{Seed: cfg.AdmissionSeed, Clock: cfg.Clock}),
		trace:         cfg.Trace,
		spans:         cfg.Spans,
	}
	c.regions.openNext(c.clock.Now())
	return c, nil
}

// Clock exposes the engine's virtual clock.
func (c *Cache) Clock() *sim.Clock { return c.clock }

// RegionSize returns the store's region size.
func (c *Cache) RegionSize() int64 { return c.store.RegionSize() }

// Set inserts or replaces key with a value of length valLen. value may be
// nil for a metadata-only insert (sizes, timing, and index behaviour are
// identical; only payload bytes are absent; with TrackValues the value is
// valLen zero bytes). The engine copies value into its region buffer and
// keeps no reference to it.
func (c *Cache) Set(key string, value []byte, valLen int) error {
	return c.SetTTL(key, value, valLen, 0)
}

// SetTTL is Set with a time-to-live measured on the virtual clock; the
// item expires ttl after the clock the set found, rounded up to a whole
// second (0 = never). Expired items answer Get as misses and are lazily
// removed from the index.
func (c *Cache) SetTTL(key string, value []byte, valLen int, ttl time.Duration) error {
	if key == "" {
		return ErrEmptyKey
	}
	if value != nil {
		valLen = len(value)
	}
	start := c.clock.Now()
	c.sets.Inc()
	if len(key) > maxKeyLen {
		return fmt.Errorf("%w: key %d bytes > %d", ErrItemTooLarge, len(key), maxKeyLen)
	}
	size := itemHeaderSize + int64(len(key)) + int64(valLen)
	if size > c.store.RegionSize() {
		return fmt.Errorf("%w: item %d > region %d", ErrItemTooLarge, size, c.store.RegionSize())
	}
	if !c.admission.Admit(key, valLen) {
		c.rejects.Inc()
		if c.trace != nil {
			c.trace.Emit(obs.Event{T: start, Type: obs.EvReject, Zone: -1, Region: -1, Bytes: size})
		}
		return nil
	}
	if c.trace != nil {
		c.trace.Emit(obs.Event{T: start, Type: obs.EvAdmit, Zone: -1, Region: -1, Bytes: size})
	}

	// Span sampling (wall clock only — the virtual clock below is never
	// touched, so replays stay deterministic). Region rolls are timed on
	// every roll (they are rare and are exactly the tail the paper chases);
	// their duration is carved out of the sampled set_publish window so the
	// two stages stay disjoint.
	rec := c.spans
	sampled := rec != nil && rec.SampleNow()
	var w0 time.Time
	if sampled {
		w0 = time.Now()
	}
	var rollDur time.Duration

	c.clock.Advance(c.cpu.IndexInsert)
	// Roll the open region if the item does not fit, or if a failed roll
	// left none open.
	if m := &c.regions.meta[c.regions.open]; m.state != regionOpen || m.fill+size > c.store.RegionSize() {
		var r0 time.Time
		if rec != nil {
			r0 = time.Now()
		}
		err := c.rollRegion()
		if rec != nil {
			rollDur = time.Since(r0)
			rec.Observe(obs.StageRegionFlush, rollDur)
		}
		if err != nil {
			return err
		}
	}
	var expireAt uint32
	if ttl > 0 {
		expireAt = uint32((start + ttl + time.Second - 1) / time.Second)
	}
	c.appendItem(key, value, valLen, expireAt)
	c.hostBytes.Add(uint64(size))
	c.setLat.Observe(c.clock.Now() - start)
	if sampled {
		if d := time.Since(w0) - rollDur; d > 0 {
			rec.Observe(obs.StageSetPublish, d)
		}
	}
	return nil
}

// appendItem packs one item into the open region (which must have room)
// and indexes it. With TrackValues, the on-flash layout is
// [header: keyLen|valLen|flags|checksum][key][value]; the checksum guards
// read-back integrity across region stores, migrations, and recovery, and
// the key length and key let every read check that the item is its key's
// (itemIs). A nil-value insert of valLen bytes writes valLen zero bytes as
// its value, so every read of it, open or sealed, returns zeros. With the
// read index on, the entry records where the value lies in the region's
// image. expireAt is the entry's TTL deadline in whole seconds (0 = none).
func (c *Cache) appendItem(key string, value []byte, valLen int, expireAt uint32) {
	m := &c.regions.meta[c.regions.open]
	size := itemHeaderSize + int64(len(key)) + int64(valLen)
	off := uint32(m.fill)
	if c.cfg.TrackValues {
		p := m.buf[m.fill : m.fill+size]
		v := p[itemHeaderSize+len(key):]
		if value == nil {
			clear(v) // a recycled buffer holds an older region's bytes
		} else {
			copy(v, value)
		}
		binary.LittleEndian.PutUint16(p[0:], uint16(len(key)))
		binary.LittleEndian.PutUint32(p[2:], uint32(valLen))
		binary.LittleEndian.PutUint64(p[8:], itemChecksum(key, v))
		copy(p[itemHeaderSize:], key)
	}
	c.clock.Advance(c.cpu.AppendItem + c.cpu.AppendPerKiB*time.Duration((size+1023)/1024))
	m.fill += size
	c.logKey(&m.keys, key)
	e := entry{region: uint32(c.regions.open), offset: off, valLen: uint32(valLen), expireAt: expireAt}
	if value != nil || c.cfg.TrackValues {
		e.img = m.img
	}
	// A replaced key's old copy becomes dead weight in its region: its
	// flash bytes until the region is evicted, its key-log record until the
	// log is compacted.
	if old, ok := c.idx.put(c.idx.hash(key), e); ok {
		c.died(old.region)
	}
}

// itemIs reports whether the item at the start of b is key's: its header's
// key length and the key bytes after the header. b must hold the item's
// header, and its key whenever the header's length is len(key). A miss on
// the lengths never reads past the header, so a b cut to a shorter key's
// item is safe.
func itemIs(b []byte, key string) bool {
	return int(binary.LittleEndian.Uint16(b)) == len(key) &&
		string(b[itemHeaderSize:itemHeaderSize+len(key)]) == key
}

// castagnoli is CRC-32C, the polynomial the CPU's CRC instructions compute.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// itemChecksum digests key and value for the on-flash header. It runs on
// every tracked set and every sealed hit, so the value — the bulk of the
// bytes — goes through hardware CRC-32C, and the key through a byte loop
// (32-bit FNV-1a: no []byte(key) copy) whose result seeds the CRC. The
// header's 8 bytes hold keyHash<<32 | crc: the right bytes under the wrong
// key fail both halves.
func itemChecksum(key string, value []byte) uint64 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	kh := uint32(offset32)
	for i := 0; i < len(key); i++ {
		kh = (kh ^ uint32(key[i])) * prime32
	}
	return uint64(kh)<<32 | uint64(crc32.Update(kh, castagnoli, value))
}

// retryStore runs one store operation with bounded retries: up to
// maxRetries extra attempts, backing the virtual clock off between them
// (doubling from retryBackoff). It returns the last attempt's
// latency and error; transient injected faults usually clear within the
// budget, persistent ones surface to the caller's degradation path.
func (c *Cache) retryStore(op func(now time.Duration) (time.Duration, error)) (time.Duration, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		lat, err := op(c.clock.Now())
		if err == nil || attempt >= maxRetries {
			return lat, err
		}
		c.retriesCtr.Inc()
		c.clock.Advance(backoff)
		backoff *= 2
	}
}

// sampledRetryStore is retryStore plus span sampling: 1-in-N calls also
// observe the operation's wall-clock cost (simulator compute — device
// latency lives on the virtual clock) as the store_io stage.
func (c *Cache) sampledRetryStore(op func(now time.Duration) (time.Duration, error)) (time.Duration, error) {
	rec := c.spans
	if rec == nil || !rec.SampleNow() {
		return c.retryStore(op)
	}
	w0 := time.Now()
	lat, err := c.retryStore(op)
	rec.Observe(obs.StageStoreIO, time.Since(w0))
	return lat, err
}

// dropRegionKeys removes every index entry still pointing at region id,
// counting each as a fault-lost key. Used by the degradation paths; the data
// is gone (or untrustworthy), and a lost key is a miss, never wrong data.
func (c *Cache) dropRegionKeys(id int) {
	c.lostKeys.Add(uint64(c.unindexRegion(id)))
}

// unindexRegion removes every entry still pointing at region id, and returns
// how many it removed: one probe per logged key, by key-log slice, with no
// allocation. The region's generation ends after it, log and all.
func (c *Cache) unindexRegion(id int) (n int) {
	c.regions.meta[id].keys.each(func(kb []byte) bool {
		if _, ok := c.idx.takeIn(c.idx.hashLog(kb), uint32(id)); ok {
			n++
		}
		return true
	})
	return n
}

// unindex removes the entry of hash h, if any, and reports whether there was
// one; its key dies in its region's log.
func (c *Cache) unindex(h uint64) bool {
	e, ok := c.idx.take(h)
	if ok {
		c.died(e.region)
	}
	return ok
}

// expire is lazy TTL expiry: the entry of hash h, past its deadline, leaves
// the index; the flash copy dies with its region.
func (c *Cache) expire(h uint64) {
	c.unindex(h)
	c.expirations.Inc()
}

// loseKey drops the entry e of hash h after its sealed bytes proved
// unreadable or unverifiable, and charges the failure to its region —
// quarantining the region once it exhausts its budget.
func (c *Cache) loseKey(h uint64, e entry) {
	c.unindex(h)
	c.lostKeys.Inc()
	if id := int(e.region); c.regions.charge(id) {
		c.dropRegionKeys(id)
		c.regions.quarantine(id)
	}
}

// rollRegion flushes the open region and installs a fresh one, evicting the
// policy victim when the free list is empty. This is the only place the
// engine stalls: on pipeline saturation and on eviction bookkeeping.
func (c *Cache) rollRegion() error {
	rt := c.regions
	id := rt.open
	m := &rt.meta[id]
	if m.state != regionOpen {
		// Every other region is quarantined: none is left to fill.
		return errNoRegion
	}

	// Figure 3's measurement: time to fill this buffer, stall-inclusive.
	c.recordFill(FillRecord{
		Seq:      c.seq,
		Duration: c.clock.Now() - m.openedAt,
		Evicted:  len(rt.free) == 0,
	})
	c.seq++
	// The successor's fill time starts now: everything below (pipeline
	// waits, flush submission, eviction) is insertion-path stall charged
	// to the next region's record, as the paper measures it.
	rollStart := c.clock.Now()

	// Pipeline admission: wait for the oldest in-flight flush if all
	// buffers are busy.
	if rt.full() {
		c.completeFlush(rt.inflight[0])
	}

	now := c.clock.Now()
	// Every flush write observes its wall-clock store_io cost (rolls are too
	// rare for 1-in-N sampling to see them).
	var w0 time.Time
	if c.spans != nil {
		w0 = time.Now()
	}
	lat, err := c.retryStore(func(t time.Duration) (time.Duration, error) {
		return c.store.WriteRegion(t, id, m.buf)
	})
	if c.spans != nil {
		c.spans.Observe(obs.StageStoreIO, time.Since(w0))
	}
	if err != nil {
		// Availability first, CacheLib-style: a flush that keeps failing
		// loses the buffer's keys (misses, accounted below — never wrong
		// data) and the engine moves on with a fresh region.
		c.dropRegionKeys(id)
		rt.failFlush(id)
	} else {
		// The synchronous share of the flush (filesystem CPU, a device GC
		// stall inside the write syscall) occupies this thread even though
		// the device write itself is pipelined.
		if sc, ok := c.store.(SyncCoster); ok {
			c.clock.Advance(sc.WriteSyncCost())
		}
		c.flushes.Inc()
		if c.trace != nil {
			c.trace.Emit(obs.Event{T: now, Type: obs.EvRegionSeal, Zone: -1, Region: int32(id), Bytes: m.fill})
		}
		if rt.flush(id, c.clock.Now()+lat) {
			c.completeFlush(id)
		}
		// Keys the region outlived while open are compacted away now that its
		// log is complete.
		if m.keys.sparse() {
			c.compactLog(id)
		}
	}

	// The next region comes off the free list, which eviction refills when
	// it is empty.
	if len(rt.free) == 0 {
		if err := c.evict(); err != nil {
			return err
		}
	}
	rt.openNext(rollStart)
	return nil
}

// completeFlush retires an in-flight flush, advancing the clock to its
// completion if it has not finished yet. The region is sealed — its reads go
// to the store — so it lets go of its buffer, and its read-index image moves
// to the store's view of the region, or to no bytes when the store lends no
// view.
func (c *Cache) completeFlush(id int) {
	m := &c.regions.meta[id]
	c.clock.AdvanceTo(m.flushDone)
	c.regions.seal(id)
	if m.img != nil {
		c.idx.seal(m.img, c.storeView(id))
	}
}

// storeView returns the store's view of region id when the store lends one
// covering every byte the region holds, and nil otherwise.
func (c *Cache) storeView(id int) []byte {
	if v, ok := c.store.(RegionViewer); ok {
		if b, ok := v.RegionView(id); ok && int64(len(b)) >= c.regions.meta[id].fill {
			return b
		}
	}
	return nil
}

// evict reclaims the policy victim for the free list. A victim still
// flushing lands first. Every key the region still indexes is removed — the
// region-granular eviction CacheLib uses to avoid item-level flash GC. A
// victim whose store-side evict keeps failing is quarantined and the next
// victim is tried; eviction itself must not fail transiently.
func (c *Cache) evict() error {
	for {
		id, ok := c.regions.victim()
		if !ok {
			return errNoRegion
		}
		m := &c.regions.meta[id]
		if m.state == regionFlushing {
			c.completeFlush(id)
		}
		// Index cleanup under the shared lock: the insertion-time spike of
		// Figure 3a. Zone-sized regions remove tens of thousands of keys here.
		c.unindexRegion(id)
		c.clock.Advance(c.cpu.EvictPerKey * time.Duration(m.keys.appended))

		now := c.clock.Now()
		lat, err := c.retryStore(func(t time.Duration) (time.Duration, error) {
			return c.store.EvictRegion(t, id)
		})
		if err != nil {
			c.regions.quarantine(id)
			continue
		}
		c.clock.Advance(lat)
		c.evicts.Inc()
		if c.trace != nil {
			c.trace.Emit(obs.Event{T: now, Type: obs.EvEvict, Zone: -1, Region: int32(id), Bytes: int64(m.keys.appended)})
		}
		c.regions.evicted(id)
		return nil
	}
}

// WouldBlock reports whether inserting an item of the given sizes right now
// would stall on the flush pipeline: the open region cannot take the item
// and every region buffer is still being written out. Best-effort callers
// (RocksDB's secondary-cache adapter) drop the insert instead of blocking —
// CacheLib's allocation-failure behaviour under flush backlog, and the
// mechanism that couples device stalls to hit ratio in Figure 5.
func (c *Cache) WouldBlock(keyLen, valLen int) bool {
	size := itemHeaderSize + int64(keyLen) + int64(valLen)
	rt := c.regions
	return rt.meta[rt.open].fill+size > c.store.RegionSize() && rt.full() && rt.meta[rt.inflight[0]].flushDone > c.clock.Now()
}

// ReadSpan bounds the bytes a sealed-region read of one item with the given
// key and value lengths transfers: the item plus at most one partial sector
// at each end. A GetBuf buffer of this capacity always receives the read.
func ReadSpan(keyLen, valLen int) int {
	return itemHeaderSize + keyLen + valLen + 2*device.SectorSize
}

// Get looks up key. With TrackValues it returns a private copy of the
// payload; otherwise it returns nil with found=true and all timing/accounting
// still exact.
func (c *Cache) Get(key string) ([]byte, bool, error) { return c.GetBuf(key, nil) }

// GetBuf is Get reading into a buffer the caller owns. When the item's read
// fits cap(buf) — a sealed item's sector-aligned span (size buf with
// ReadSpan), an open or flushing item's value — the returned value aliases
// buf: it is read-only and valid until the caller reuses buf. These are not
// append semantics: a sealed value sits inside the span, past the leading
// sector slack and the item header, and moving it to buf[0] would cost the
// copy GetBuf exists to avoid. When the read does not fit (buf nil or short)
// the value is a private copy, as from Get. The engine never retains buf.
func (c *Cache) GetBuf(key string, buf []byte) ([]byte, bool, error) {
	start := c.clock.Now()
	c.gets.Inc()
	c.clock.Advance(c.cpu.IndexLookup)
	h, e, ok := c.idx.lookup(key)
	if !ok {
		c.hitRatio.Miss()
		c.getLat.Observe(c.clock.Now() - start)
		return nil, false, nil
	}
	if e.expired(c.clock.Now()) {
		c.expire(h)
		c.hitRatio.Miss()
		c.getLat.Observe(c.clock.Now() - start)
		return nil, false, nil
	}
	m := &c.regions.meta[e.region]
	var val []byte
	switch m.state {
	case regionOpen, regionFlushing:
		// Served straight from the in-memory buffer — for a flushing region
		// the in-flight buffer, as real Navy does: memory-speed access.
		if c.cfg.TrackValues {
			if !itemIs(m.buf[e.offset:], key) {
				// Another key's item under key's hash: a miss, and the entry
				// stays the other key's.
				c.hitRatio.Miss()
				c.getLat.Observe(c.clock.Now() - start)
				return nil, false, nil
			}
			base := e.valueOff(len(key))
			val = append(buf[:0], m.buf[base:base+e.valLen]...)
		}
	case regionSealed:
		// Device read of the sector-aligned span covering the item.
		itemStart := int64(e.offset)
		itemEnd := itemStart + e.itemSize(len(key))
		alignedStart := itemStart / device.SectorSize * device.SectorSize
		alignedEnd := (itemEnd + device.SectorSize - 1) / device.SectorSize * device.SectorSize
		if alignedEnd > c.store.RegionSize() {
			alignedEnd = c.store.RegionSize()
		}
		n := int(alignedEnd - alignedStart)
		var pv *[]byte // pooled scratch, when the span does not fit buf
		var p []byte
		if c.cfg.TrackValues {
			if cap(buf) >= n {
				p = buf[:n]
			} else {
				pv = c.getScratch(n)
				p = *pv
			}
		}
		lat, err := c.sampledRetryStore(func(t time.Duration) (time.Duration, error) {
			return c.store.ReadRegion(t, int(e.region), p, n, alignedStart)
		})
		if err != nil {
			// Persistent read failure: degrade to a miss. The key is dropped
			// (its bytes are unreachable — a lost key, never wrong data) and
			// the region is charged a failure toward quarantine.
			c.putScratch(pv)
			c.loseKey(h, e)
			c.hitRatio.Miss()
			c.getLat.Observe(c.clock.Now() - start)
			return nil, false, nil
		}
		c.clock.Advance(lat)
		if c.cfg.TrackValues {
			head := itemStart - alignedStart
			base := head + itemHeaderSize + int64(len(key))
			end := base + int64(e.valLen)
			val = p[base:end:end]
			// Verify the item in place: its header must name key, and its
			// on-flash checksum must match. Corruption in the store, a GC
			// migration, or stale recovery metadata surfaces here and becomes
			// a miss — the cache never serves unverified bytes.
			keyOK := itemIs(p[head:], key)
			want := binary.LittleEndian.Uint64(p[head+8 : head+16])
			verified := keyOK && (c.cfg.SkipChecksum || itemChecksum(key, val) == want)
			if pv != nil {
				if verified {
					val = bytes.Clone(val)
				}
				c.putScratch(pv)
			}
			if !verified {
				if keyOK {
					c.loseKey(h, e)
				} else {
					// The entry points at another key's item: stale metadata
					// or a hash shared with that key. The region's bytes are
					// sound, so only the entry goes; the region is not
					// charged toward quarantine.
					c.unindex(h)
					c.lostKeys.Inc()
				}
				c.hitRatio.Miss()
				c.getLat.Observe(c.clock.Now() - start)
				return nil, false, nil
			}
			// Promote the verified item so later Gets for this restored key
			// go lock-free.
			if c.promote(&e) {
				c.idx.put(h, e)
			}
		}
	default:
		// Entry pointing into a free region would be an index invariant
		// violation; eviction always removes keys first.
		return nil, false, fmt.Errorf("cache: index points to free region %d", e.region)
	}
	c.regions.touch(int(e.region))
	c.hitRatio.Hit()
	c.getLat.Observe(c.clock.Now() - start)
	return val, true, nil
}

// getScratch returns a sealed-read scratch buffer of length n, reusing a
// pooled buffer when possible. The same *[]byte box cycles through the pool
// so steady-state Gets allocate nothing for the read span.
func (c *Cache) getScratch(n int) *[]byte {
	v, _ := c.readBuf.Get().(*[]byte)
	if v == nil {
		b := make([]byte, n)
		return &b
	}
	if cap(*v) < n {
		*v = make([]byte, n)
	}
	*v = (*v)[:n]
	return v
}

// putScratch returns a buffer box obtained from getScratch to the pool. A
// nil box (metadata-only read) is ignored.
func (c *Cache) putScratch(v *[]byte) {
	if v != nil {
		c.readBuf.Put(v)
	}
}

// Contains reports whether key is present without touching recency or
// latency accounting beyond the index lookup. TTL-expired items count as
// absent and are lazily removed, exactly as Get treats them. It reads no
// item bytes, so it trusts the key's hash.
func (c *Cache) Contains(key string) bool {
	c.clock.Advance(c.cpu.IndexLookup)
	h, e, ok := c.idx.lookup(key)
	if !ok {
		return false
	}
	if e.expired(c.clock.Now()) {
		c.expire(h)
		return false
	}
	return true
}

// Delete removes key from the index. The flash copy stays until its region
// is evicted (region-granular reclaim). It removes the entry of key's hash
// without reading the item: a key that shares the hash loses its entry too,
// which only makes it miss.
func (c *Cache) Delete(key string) bool {
	c.dels.Inc()
	c.clock.Advance(c.cpu.IndexRemove)
	return c.unindex(c.idx.hash(key))
}

// Len returns the number of indexed items.
func (c *Cache) Len() int { return c.idx.len() }

// RegionDroppable reports whether region id is sealed and sits in the
// coldest 30% of the eviction order. It is the cache-side answer to the
// middle layer's co-design question (§3.4): "by using the cache information
// or hints, the GC overhead can be effectively minimized without explicitly
// sacrificing the cache hit ratio".
func (c *Cache) RegionDroppable(id int) bool {
	return c.regions.cold(id)
}

// InvalidateRegion force-evicts region id without a store call: the
// middle-layer GC already discarded the bytes (co-design drop), so the
// engine only cleans its index and returns the region to the free pool.
func (c *Cache) InvalidateRegion(id int) {
	if !c.regions.sealed(id) {
		return
	}
	c.unindexRegion(id)
	c.clock.Advance(c.cpu.EvictPerKey * time.Duration(c.regions.meta[id].keys.appended))
	c.regions.drop(id)
	c.drops.Inc()
}

// noEvictSeq marks firstEvictSeq as "no eviction recorded yet".
const noEvictSeq = ^uint64(0)

// recordFill appends one FillRecord, overwriting the oldest entry once the
// ring holds fillLogCap.
func (c *Cache) recordFill(r FillRecord) {
	if r.Evicted && c.firstEvictSeq == noEvictSeq {
		c.firstEvictSeq = r.Seq
	}
	c.fillCount++
	if len(c.fillLog) == fillLogCap {
		c.fillLog[c.fillStart] = r
		c.fillStart = (c.fillStart + 1) % fillLogCap
		return
	}
	c.fillLog = append(c.fillLog, r)
}

// FillLog returns the retained per-region buffer fill records (Figure 3) in
// chronological order. Only the most recent fillLogCap records survive; the
// returned slice must not be modified and is valid
// until the next Set.
func (c *Cache) FillLog() []FillRecord {
	if c.fillStart == 0 {
		return c.fillLog
	}
	out := make([]FillRecord, 0, len(c.fillLog))
	out = append(out, c.fillLog[c.fillStart:]...)
	out = append(out, c.fillLog[:c.fillStart]...)
	return out
}

// FillCount returns how many region fills have been recorded over the
// cache's lifetime, including records trimmed from a bounded fill log.
func (c *Cache) FillCount() uint64 { return c.fillCount }

// EvictionOnset returns the sequence number of the first region fill that
// required an eviction, and whether eviction has started. It is exact even
// when the bounded fill log has trimmed the onset record, and turns the
// harness's per-Set onset scan into an O(1) query.
func (c *Cache) EvictionOnset() (uint64, bool) {
	return c.firstEvictSeq, c.firstEvictSeq != noEvictSeq
}

// Drain completes all in-flight flushes (used before reading stats so the
// simulated time covers all issued work).
func (c *Cache) Drain() {
	for len(c.regions.inflight) > 0 {
		c.completeFlush(c.regions.inflight[0])
	}
}

// SealOpen flushes the open region's partially-filled buffer to the store
// through the normal roll path and drains the pipeline. Snapshot drops the
// open region's DRAM contents — the right model for a crash, but a graceful
// shutdown can do better: seal first and the buffered items persist like any
// sealed region. Rolling follows insertion-path rules, so when no free
// region remains it evicts the policy victim (trading the coldest region for
// the freshest writes). A no-op when the buffer is empty.
func (c *Cache) SealOpen() error {
	if c.regions.meta[c.regions.open].fill > 0 {
		if err := c.rollRegion(); err != nil {
			return err
		}
	}
	c.Drain()
	return nil
}

// Stats snapshots the engine counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Gets:           c.gets.Load(),
		Sets:           c.sets.Load(),
		Deletes:        c.dels.Load(),
		Hits:           c.hitRatio.Hits(),
		Misses:         c.hitRatio.Misses(),
		HitRatio:       c.hitRatio.Ratio(),
		Evictions:      c.evicts.Load(),
		Expirations:    c.expirations.Load(),
		CoDesignDrops:  c.drops.Load(),
		Flushes:        c.flushes.Load(),
		AdmitRejects:   c.rejects.Load(),
		HostWriteBytes: c.hostBytes.Load(),
		StoreRetries:   c.retriesCtr.Load(),
		Quarantined:    c.regions.quarantines.Load(),
		LostKeys:       c.lostKeys.Load(),
		RestoreDrops:   c.restoreDrop.Load(),
		GetLatency:     c.getLat.Snapshot(),
		SetLatency:     c.setLat.Snapshot(),
		SimulatedTime:  c.clock.Now(),
	}
}

// MetricsInto implements obs.MetricSource, registering the same instruments
// Stats() snapshots. Only atomically- or mutex-backed instruments are
// registered — never closures over the engine's maps or region table, which
// belong to the (single-threaded) simulation goroutine — so a concurrent
// scrape mid-run is safe.
func (c *Cache) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "cache")
	r.HitRatio("cache_lookup", "Cache lookups", ls, &c.hitRatio)
	r.Histogram("cache_get_seconds", "Get latency (simulated)", ls, c.getLat)
	r.Histogram("cache_set_seconds", "Set latency (simulated)", ls, c.setLat)
	r.Counter("cache_gets_total", "Get operations", ls, &c.gets)
	r.Counter("cache_sets_total", "Set operations", ls, &c.sets)
	r.Counter("cache_deletes_total", "Delete operations", ls, &c.dels)
	r.Counter("cache_evictions_total", "Region evictions", ls, &c.evicts)
	r.Counter("cache_codesign_drops_total", "Regions invalidated by GC co-design drops", ls, &c.drops)
	r.Counter("cache_expirations_total", "TTL expirations", ls, &c.expirations)
	r.Counter("cache_flushes_total", "Region flushes", ls, &c.flushes)
	r.Counter("cache_admit_rejects_total", "Inserts rejected by the admission policy", ls, &c.rejects)
	r.Counter("cache_host_write_bytes_total", "Item bytes accepted from the host", ls, &c.hostBytes)
	r.Counter("cache_store_retries_total", "Store operations retried after an error", ls, &c.retriesCtr)
	r.Counter("region_quarantined_total", "Regions withdrawn after repeated store failures", ls, &c.regions.quarantines)
	r.Counter("cache_fault_lost_keys_total", "Keys dropped because their bytes became unreachable", ls, &c.lostKeys)
	r.Counter("cache_restore_dropped_entries_total", "Snapshot entries dropped by the Restore repair pass", ls, &c.restoreDrop)
	r.Gauge("cache_region_buffer_bytes", "DRAM held in region buffers (open, in-flight and spare)", ls,
		func() float64 { return float64(c.regions.bufBytes.Load()) })
	r.Gauge("cache_index_bytes", "DRAM held by the key index: its slots and the region key logs' buffers", ls,
		func() float64 { return float64(c.idx.indexBytes.Load()) })
	r.Counter("cache_key_log_compactions_total", "Region key logs rewritten to their live keys", ls, &c.compactions)
	if ix := c.idx; ix.shared {
		r.Gauge("cache_dram_bytes", "Bytes of the region buffers behind read-index images: the open and flushing regions'", ls,
			func() float64 { return float64(ix.dramBytes.Load()) })
		r.Counter("cache_fast_get_hits_total", "Gets answered lock-free from the read index", ls, &ix.fastHits)
		r.Counter("cache_fast_get_tier_hits_total", "Lock-free hits by where the value lay: memory held for the index or the store's view",
			ls.With("tier", "dram"), &ix.dramHits)
		r.Counter("cache_fast_get_tier_hits_total", "Lock-free hits by where the value lay: memory held for the index or the store's view",
			ls.With("tier", "store"), &ix.storeHits)
		r.Counter("cache_fast_get_misses_total", "Misses answered lock-free from the read index", ls, &ix.fastMisses)
		r.Counter("cache_read_note_drops_total", "Deferred read notes shed on queue overflow", ls, &ix.noteDrops)
	}
	if am, ok := c.admission.(AdmissionMetrics); ok {
		am.MetricsInto(r, ls)
	}
}

// GetLatencyHistogram exposes the raw get-latency histogram for percentile
// queries beyond the snapshot.
func (c *Cache) GetLatencyHistogram() *stats.Histogram { return c.getLat }

// SetLatencyHistogram exposes the raw set-latency histogram.
func (c *Cache) SetLatencyHistogram() *stats.Histogram { return c.setLat }
