package cache

import "encoding/binary"

// keyLog is the per-region record of inserted keys in insertion order. The
// engine used to keep a []string next to the index map; at millions of items
// that is one string header per key for the GC to trace on every cycle, plus
// repeated slice regrowth per region generation. The log instead packs keys
// into a single pointer-free byte buffer ([2-byte little-endian length][key
// bytes] per entry) that is reused across region generations, so appends
// rarely allocate and region metadata holds exactly one pointer.
//
// The index keeps only key hashes, so the logs are where every indexed key
// lives (eachEntry, Snapshot): a region's log holds every live key of the
// region, plus dead ones until they make up half the log. A key dies in its
// region when its entry leaves the region: a later set of its hash, a
// delete, an expiry or a lost read. Once half of a sealed or flushing
// region's log is dead, compactLog rewrites it to its live keys in an
// exactly sized buffer, so the logs hold about what the index does. Eviction
// hashes each logged key's bytes in place (index.hashLog) to find and take
// its entry, materializing no string.
type keyLog struct {
	data []byte
	n    int // keys held
	dead int // held keys whose entry has left the region
	// appended counts the keys appended this generation, compacted away or
	// not. Eviction charges EvictPerKey for each: Navy walks every item of a
	// region it reclaims, live or dead.
	appended int
}

// compactFloor is the fewest keys a log holds before it is compacted: a
// smaller log saves too few bytes to pay for the buffer it would allocate.
const compactFloor = 8

// append records key at the end of the log. Key length fits uint16: SetTTL
// refuses longer keys (maxKeyLen).
func (kl *keyLog) append(key string) {
	var pfx [2]byte
	binary.LittleEndian.PutUint16(pfx[:], uint16(len(key)))
	kl.data = append(kl.data, pfx[0], pfx[1])
	kl.data = append(kl.data, key...)
	kl.n++
	kl.appended++
}

// len returns the number of keys held.
func (kl *keyLog) len() int { return kl.n }

// sparse reports whether at least half the keys held are dead, in a log
// long enough to compact.
func (kl *keyLog) sparse() bool { return kl.n >= compactFloor && 2*kl.dead >= kl.n }

// reset empties the log, keeping the buffer for reuse.
func (kl *keyLog) reset() { *kl = keyLog{data: kl.data[:0]} }

// each calls fn for every key in insertion order until fn returns false. The
// byte slice passed to fn aliases the log's buffer: valid until the log is
// next appended to, filtered or reset.
func (kl *keyLog) each(fn func(k []byte) bool) {
	for off := 0; off+2 <= len(kl.data); {
		n := int(binary.LittleEndian.Uint16(kl.data[off:]))
		off += 2
		if off+n > len(kl.data) {
			return
		}
		if !fn(kl.data[off : off+n]) {
			return
		}
		off += n
	}
}

// filter keeps the keys keep accepts, in order, rewriting the log in place.
// keep sees each key once, in insertion order, before any later key moves.
func (kl *keyLog) filter(keep func(k []byte) bool) {
	w, n := 0, 0
	for off := 0; off+2 <= len(kl.data); {
		end := off + 2 + int(binary.LittleEndian.Uint16(kl.data[off:]))
		if end > len(kl.data) {
			break
		}
		if keep(kl.data[off+2 : end]) {
			w += copy(kl.data[w:], kl.data[off:end])
			n++
		}
		off = end
	}
	kl.data = kl.data[:w]
	kl.n = n
}

// logKey appends key to kl, a region's key log, and counts the buffer's
// growth in cache_index_bytes.
func (c *Cache) logKey(kl *keyLog, key string) {
	was := cap(kl.data)
	kl.append(key)
	if grew := cap(kl.data) - was; grew != 0 {
		c.idx.indexBytes.Add(int64(grew))
	}
}

// died records that a key region id's log holds has lost its entry, and
// compacts the log once half of it is dead, unless the region is open: the
// open region's log is still growing.
func (c *Cache) died(id uint32) {
	m := &c.regions.meta[id]
	m.keys.dead++
	if m.state != regionOpen && m.keys.sparse() {
		c.compactLog(int(id))
	}
}

// keepLive rewrites kl, region id's key log or a copy of it, in place to the
// region's live keys, in log order: each key whose entry points into the
// region and that is the last key the log holds under its hash (every later
// set of a hash went to this region or a newer one). It is the one rule for
// which logged keys are live: compaction and eachEntry both apply it.
func (c *Cache) keepLive(id int, kl *keyLog) {
	live := kl.n - kl.dead
	kl.filter(func(kb []byte) bool {
		e, ok := c.idx.get(c.idx.hashLog(kb))
		return ok && int(e.region) == id
	})
	if kl.n > live {
		// A key set twice while the region was open, or two keys of one
		// hash: only the last of each hash is live.
		last := make(map[uint64]int, kl.n)
		i := 0
		kl.each(func(kb []byte) bool {
			last[c.idx.hashLog(kb)] = i
			i++
			return true
		})
		i = 0
		kl.filter(func(kb []byte) bool {
			i++
			return last[c.idx.hashLog(kb)] == i-1
		})
	}
	kl.dead = 0
}

// compactLog rewrites region id's key log to its live keys (keepLive) and
// moves them into an exactly sized buffer. The appended count, and so the
// eviction charge, stays.
func (c *Cache) compactLog(id int) {
	kl := &c.regions.meta[id].keys
	was := cap(kl.data)
	c.keepLive(id, kl)
	kl.data = append(make([]byte, 0, len(kl.data)), kl.data...)
	c.idx.indexBytes.Add(int64(cap(kl.data) - was))
	c.compactions.Inc()
}
