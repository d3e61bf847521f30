// Package lsm implements a leveled log-structured merge-tree key-value
// store in the mould of RocksDB, complete enough to reproduce the paper's
// end-to-end evaluation (§4.2): a memtable with a write-ahead log, leveled
// SSTables with per-table Bloom filters and pinned index blocks, a DRAM
// block cache, and the secondary-cache hook that the four CacheLib schemes
// plug into. Storage sits on any simulated block device; the paper (and the
// default harness) backs it with an HDD so that secondary-cache misses are
// expensive and the hit ratio dominates throughput (Table 2).
package lsm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"znscache/internal/device"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// Errors returned by the DB.
var (
	ErrBadConfig = errors.New("lsm: invalid configuration")
	ErrNotFound  = errors.New("lsm: key not found")
)

// Config parameterizes the store.
type Config struct {
	// Disk is the backing device for WAL, SSTables.
	Disk device.BlockDevice
	// MemtableBytes triggers a flush (default 4 MiB).
	MemtableBytes int64
	// L0CompactionTrigger compacts L0 when it holds this many tables
	// (default 4, RocksDB's default).
	L0CompactionTrigger int
	// BaseLevelBytes is L1's size budget; each deeper level is 10x
	// (default 16 MiB).
	BaseLevelBytes int64
	// BlockCacheBytes is the DRAM block-cache capacity (default 32 MiB,
	// the paper's setting).
	BlockCacheBytes int64
	// Secondary is the flash secondary cache; nil disables it.
	Secondary SecondaryCache
	// StoreValues retains value bytes (tests/examples); otherwise values
	// are metadata-sized only and Get returns nil payloads.
	StoreValues bool
	// WALBufferBytes groups commits before a WAL device write (default 64 KiB).
	WALBufferBytes int64
	// Clock is the shared virtual clock (required so the secondary cache
	// and DB advance the same timeline); a fresh one is created if nil.
	Clock *sim.Clock
	// CPULookup is the software cost per Get (default 2µs).
	CPULookup time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Disk == nil {
		return fmt.Errorf("%w: nil disk", ErrBadConfig)
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.L0CompactionTrigger == 0 {
		c.L0CompactionTrigger = 4
	}
	if c.BaseLevelBytes == 0 {
		c.BaseLevelBytes = 16 << 20
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 32 << 20
	}
	if c.WALBufferBytes == 0 {
		c.WALBufferBytes = 64 << 10
	}
	if c.Clock == nil {
		c.Clock = sim.NewClock()
	}
	if c.CPULookup == 0 {
		c.CPULookup = 2 * time.Microsecond
	}
	return nil
}

// numLevels bounds the level hierarchy.
const numLevels = 7

// DB is the store. Methods are not safe for concurrent use (deterministic
// single-threaded simulation).
type DB struct {
	cfg   Config
	clock *sim.Clock

	mem      map[string]kv
	memBytes int64

	levels  [numLevels][]*Table // levels[0] newest-last; levels[1..] sorted by smallest
	nextID  int64
	diskCur int64 // bump allocator over the disk
	walPend int64 // WAL bytes buffered and not yet written
	walOff  int64 // WAL region cursor (wraps within a 256 MiB ring)

	blockCache *dramCache
	secondary  SecondaryCache

	// Observability.
	GetLat           *stats.Histogram
	PutLat           *stats.Histogram
	Flushes          stats.Counter
	Compactions      stats.Counter
	DiskReads        stats.Counter
	SecondaryHits    stats.Counter
	SecondaryLookups stats.Counter
}

// walRing is the disk space reserved for the write-ahead log.
const walRing = 256 << 20

// Open builds an empty DB on the device.
func Open(cfg Config) (*DB, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sec := cfg.Secondary
	if sec == nil {
		sec = noSecondary{}
	}
	db := &DB{
		cfg:       cfg,
		clock:     cfg.Clock,
		mem:       make(map[string]kv),
		diskCur:   walRing, // tables start after the WAL ring
		secondary: sec,
		GetLat:    stats.NewHistogram(),
		PutLat:    stats.NewHistogram(),
	}
	db.blockCache = newDRAMCache(cfg.BlockCacheBytes, sec)
	return db, nil
}

// Clock exposes the shared virtual clock.
func (db *DB) Clock() *sim.Clock { return db.clock }

// Put inserts or updates a key. val may be nil with an explicit length
// (metadata-only payload).
func (db *DB) Put(key string, val []byte, vlen int) error {
	if key == "" {
		return fmt.Errorf("%w: empty key", ErrBadConfig)
	}
	if val != nil {
		vlen = len(val)
	}
	start := db.clock.Now()
	e := kv{key: key, vlen: vlen}
	if db.cfg.StoreValues {
		e.val = append([]byte(nil), val...)
	}
	if old, ok := db.mem[key]; ok {
		db.memBytes -= int64(len(old.key) + old.vlen)
	}
	db.mem[key] = e
	entryBytes := int64(len(key) + vlen)
	db.memBytes += entryBytes

	// WAL: group commit; charge a sequential device write when the buffer
	// fills (sector-aligned).
	db.walPend += entryBytes + 16
	if db.walPend >= db.cfg.WALBufferBytes {
		n := int(db.walPend / device.SectorSize * device.SectorSize)
		if n > 0 {
			if db.walOff+int64(n) > walRing {
				db.walOff = 0
			}
			lat, err := db.cfg.Disk.WriteAt(db.clock.Now(), nil, n, db.walOff)
			if err != nil {
				return fmt.Errorf("lsm: wal write: %w", err)
			}
			db.walOff += int64(n)
			db.clock.Advance(lat)
			db.walPend -= int64(n)
		}
	}

	if db.memBytes >= db.cfg.MemtableBytes {
		if err := db.flushMemtable(); err != nil {
			return err
		}
	}
	db.PutLat.Observe(db.clock.Now() - start)
	return nil
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty key", ErrBadConfig)
	}
	e := kv{key: key, tomb: true}
	if old, ok := db.mem[key]; ok {
		db.memBytes -= int64(len(old.key) + old.vlen)
	}
	db.mem[key] = e
	db.memBytes += int64(len(key))
	return nil
}

// flushMemtable freezes the memtable into an L0 table.
func (db *DB) flushMemtable() error {
	if len(db.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(db.mem))
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tb := newTableBuilder(db.cfg.StoreValues)
	for _, k := range keys {
		tb.add(db.mem[k])
	}
	t, err := db.writeTable(tb, 0)
	if err != nil {
		return err
	}
	db.levels[0] = append(db.levels[0], t) // newest last
	db.mem = make(map[string]kv)
	db.memBytes = 0
	db.Flushes.Inc()
	return db.maybeCompact()
}

// writeTable persists a built table: one sequential device write.
func (db *DB) writeTable(tb *tableBuilder, level int) (*Table, error) {
	id := db.nextID
	db.nextID++
	off := db.diskCur
	t := tb.build(id, level, off)
	// Round the footprint to sectors for the device write.
	n := (t.size + device.SectorSize - 1) / device.SectorSize * device.SectorSize
	if n == 0 {
		n = device.SectorSize
	}
	db.diskCur += n
	lat, err := db.cfg.Disk.WriteAt(db.clock.Now(), nil, int(n), off)
	if err != nil {
		return nil, fmt.Errorf("lsm: table write: %w", err)
	}
	db.clock.Advance(lat)
	return t, nil
}

// Get returns the value for key. With StoreValues off, the returned slice
// is nil but found/latency semantics are exact.
func (db *DB) Get(key string) ([]byte, bool, error) {
	start := db.clock.Now()
	db.clock.Advance(db.cfg.CPULookup)
	defer func() { db.GetLat.Observe(db.clock.Now() - start) }()

	if e, ok := db.mem[key]; ok {
		if e.tomb {
			return nil, false, nil
		}
		return e.val, true, nil
	}
	// L0: newest table first (they overlap).
	for i := len(db.levels[0]) - 1; i >= 0; i-- {
		t := db.levels[0][i]
		if v, found, tomb, err := db.searchTable(t, key); err != nil {
			return nil, false, err
		} else if found {
			return v, !tomb, nil
		}
	}
	// Deeper levels: at most one covering table per level.
	for lvl := 1; lvl < numLevels; lvl++ {
		tables := db.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool { return tables[i].largest >= key })
		if i >= len(tables) || !tables[i].covers(key) {
			continue
		}
		if v, found, tomb, err := db.searchTable(tables[i], key); err != nil {
			return nil, false, err
		} else if found {
			return v, !tomb, nil
		}
	}
	return nil, false, nil
}

// searchTable probes one table through the filter, index, and cache
// hierarchy. Returns (value, found, tombstone).
func (db *DB) searchTable(t *Table, key string) ([]byte, bool, bool, error) {
	if !t.covers(key) || !t.filter.mayContain(key) {
		return nil, false, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return nil, false, false, nil
	}
	blk := t.blocks[bi]
	id := blockID{table: t.id, block: bi}
	sz := blk.storedBytes()

	if !db.blockCache.lookup(id) {
		// DRAM miss: try the secondary cache, then the disk.
		db.SecondaryLookups.Inc()
		if db.secondary.Lookup(id.cacheKey(), sz) {
			db.SecondaryHits.Inc()
		} else {
			// Disk read of the block's sector span.
			off := t.diskOff + int64(bi)*BlockSize
			n := (sz + device.SectorSize - 1) / device.SectorSize * device.SectorSize
			if n == 0 {
				n = device.SectorSize
			}
			buf := make([]byte, n)
			lat, err := db.cfg.Disk.ReadAt(db.clock.Now(), buf, off)
			if err != nil {
				return nil, false, false, fmt.Errorf("lsm: block read: %w", err)
			}
			db.clock.Advance(lat)
			db.DiskReads.Inc()
		}
		// Promote into DRAM (spilling a victim to the secondary cache).
		db.blockCache.insert(id, sz)
	} else {
		db.clock.Advance(200 * time.Nanosecond) // DRAM cache hit cost
	}

	i := blk.find(key)
	if i < 0 {
		return nil, false, false, nil
	}
	v, _, tomb := blk.val(i)
	if v != nil {
		v = append([]byte(nil), v...)
	}
	return v, true, tomb, nil
}

// maybeCompact runs compactions until every level is within budget.
func (db *DB) maybeCompact() error {
	for {
		level := db.pickCompaction()
		if level < 0 {
			return nil
		}
		if err := db.compact(level); err != nil {
			return err
		}
	}
}

// pickCompaction returns a level needing compaction, or -1.
func (db *DB) pickCompaction() int {
	if len(db.levels[0]) >= db.cfg.L0CompactionTrigger {
		return 0
	}
	budget := db.cfg.BaseLevelBytes
	for lvl := 1; lvl < numLevels-1; lvl++ {
		var sz int64
		for _, t := range db.levels[lvl] {
			sz += t.size
		}
		if sz > budget {
			return lvl
		}
		budget *= 10
	}
	return -1
}

// compact merges level's tables (all of L0, or the first over-budget table
// of a deeper level) with the overlapping tables of level+1.
func (db *DB) compact(level int) error {
	db.Compactions.Inc()
	var inputs []*Table
	if level == 0 {
		inputs = append(inputs, db.levels[0]...)
		db.levels[0] = nil
	} else {
		// Rotate: take the table with the smallest key (simple heuristic).
		inputs = append(inputs, db.levels[level][0])
		db.levels[level] = db.levels[level][1:]
	}
	lo, hi := inputs[0].smallest, inputs[0].largest
	for _, t := range inputs[1:] {
		if t.smallest < lo {
			lo = t.smallest
		}
		if t.largest > hi {
			hi = t.largest
		}
	}
	next := level + 1
	var overlap, keep []*Table
	for _, t := range db.levels[next] {
		if t.largest < lo || t.smallest > hi {
			keep = append(keep, t)
		} else {
			overlap = append(overlap, t)
		}
	}
	db.levels[next] = keep

	// Merge: newest-wins. Priority by recency: L0 tables are ordered
	// oldest→newest; inputs from `level` are newer than `overlap`.
	merged := mergeTables(append(append([]*Table(nil), overlap...), inputs...), db.cfg.StoreValues)

	// Charge the compaction reads (all input bytes, sequential-ish).
	var readBytes int64
	for _, t := range inputs {
		readBytes += t.size
	}
	for _, t := range overlap {
		readBytes += t.size
	}
	if readBytes > 0 {
		n := (readBytes + device.SectorSize - 1) / device.SectorSize * device.SectorSize
		// One seek plus streaming: model as a single big sequential read at
		// the first input's offset.
		lat, err := db.cfg.Disk.ReadAt(db.clock.Now(), make([]byte, min(n, 1<<20)), inputs[0].diskOff)
		if err != nil {
			return fmt.Errorf("lsm: compaction read: %w", err)
		}
		db.clock.Advance(lat)
	}

	// Split merged output into ~32 MiB tables.
	const targetTable = 32 << 20
	tb := newTableBuilder(db.cfg.StoreValues)
	var outs []*Table
	var curBytes int64
	flushOut := func() error {
		if tb.empty() {
			return nil
		}
		t, err := db.writeTable(tb, next)
		if err != nil {
			return err
		}
		outs = append(outs, t)
		tb = newTableBuilder(db.cfg.StoreValues)
		curBytes = 0
		return nil
	}
	for _, e := range merged {
		// Drop tombstones merging into the last level.
		if e.tomb && next == numLevels-1 {
			continue
		}
		tb.add(e)
		curBytes += int64(len(e.key) + e.vlen + 8)
		if curBytes >= targetTable {
			if err := flushOut(); err != nil {
				return err
			}
		}
	}
	if err := flushOut(); err != nil {
		return err
	}
	db.levels[next] = append(db.levels[next], outs...)
	sort.Slice(db.levels[next], func(i, j int) bool {
		return db.levels[next][i].smallest < db.levels[next][j].smallest
	})
	return nil
}

// mergeTables merges tables into a single sorted run; later tables in the
// slice win key conflicts (callers order them oldest first).
func mergeTables(tables []*Table, storeVals bool) []kv {
	out := make(map[string]kv)
	for _, t := range tables {
		for _, b := range t.blocks {
			for i := 0; i < b.n(); i++ {
				v, vlen, tomb := b.val(i)
				e := kv{key: b.key(i), vlen: vlen, tomb: tomb}
				if storeVals && v != nil {
					e.val = append([]byte(nil), v...)
				}
				out[e.key] = e
			}
		}
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := make([]kv, 0, len(keys))
	for _, k := range keys {
		res = append(res, out[k])
	}
	return res
}

// Flush forces the memtable to L0 (used between benchmark phases).
func (db *DB) Flush() error { return db.flushMemtable() }

// TableCount reports tables per level (tests).
func (db *DB) TableCount(level int) int { return len(db.levels[level]) }

// BlockCacheHitRatio reports the DRAM block cache hit ratio.
func (db *DB) BlockCacheHitRatio() float64 {
	tot := db.blockCache.hits + db.blockCache.misses
	if tot == 0 {
		return 0
	}
	return float64(db.blockCache.hits) / float64(tot)
}

// MetricsInto implements obs.MetricSource: DB latency distributions,
// flush/compaction activity, and secondary-cache effectiveness.
func (db *DB) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "lsm")
	r.Histogram("lsm_get_seconds", "DB Get latency (simulated)", ls, db.GetLat)
	r.Histogram("lsm_put_seconds", "DB Put latency (simulated)", ls, db.PutLat)
	r.Counter("lsm_flushes_total", "Memtable flushes", ls, &db.Flushes)
	r.Counter("lsm_compactions_total", "Compaction passes", ls, &db.Compactions)
	r.Counter("lsm_disk_reads_total", "Data-block disk reads", ls, &db.DiskReads)
	r.Counter("lsm_secondary_lookups_total", "Secondary-cache lookups", ls, &db.SecondaryLookups)
	r.Counter("lsm_secondary_hits_total", "Secondary-cache hits", ls, &db.SecondaryHits)
}

// SecondaryHitRatio reports hits over lookups of the secondary cache.
func (db *DB) SecondaryHitRatio() float64 {
	l := db.SecondaryLookups.Load()
	if l == 0 {
		return 0
	}
	return float64(db.SecondaryHits.Load()) / float64(l)
}
