package cache

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"znscache/internal/obs"
)

// entryOf returns key's index entry (zero when absent).
func entryOf(c *Cache, key string) entry {
	_, e, _ := c.idx.lookup(key)
	return e
}

// regionLiveErr is the region-live invariant, checked with the read notes
// drained: every entry points at an open, flushing or sealed region whose
// key log holds a key of the entry's hash, a probe from its home slot finds
// it, Len counts every entry, and eachEntry finds a key for each. The
// key-log check catches an entry left behind when its region was freed and
// reopened. Each log's dead count is exact — the keys it holds less those
// counted dead are the entries pointing into its region — and no log but
// the open region's holds more than twice its live keys plus the compaction
// floor. indexBytes, the cache_index_bytes gauge, is the slots' bytes plus
// the logs' buffer capacity.
func regionLiveErr(c *Cache) error {
	c.drainReadNotes()
	logged := make([]map[uint64]bool, len(c.regions.meta)) // hashes each region's key log holds
	for id := range c.regions.meta {
		logged[id] = map[uint64]bool{}
		c.regions.meta[id].keys.each(func(kb []byte) bool {
			logged[id][c.idx.hashLog(kb)] = true
			return true
		})
	}
	n := 0
	live := make([]int, len(c.regions.meta)) // entries pointing into each region
	for i := range c.idx.stripes {
		for _, s := range c.idx.stripes[i].slots {
			if s.hash == 0 {
				continue
			}
			n++
			if e, ok := c.idx.get(s.hash); !ok || e != s.e {
				return fmt.Errorf("entry of hash %#x: a probe finds (%+v, %v), the slot holds %+v", s.hash, e, ok, s.e)
			}
			r := int(s.e.region)
			if r >= len(c.regions.meta) {
				return fmt.Errorf("entry of hash %#x: region %d", s.hash, r)
			}
			live[r]++
			switch st := c.regions.meta[r].state; st {
			case regionOpen, regionFlushing, regionSealed:
				if !logged[r][s.hash] {
					return fmt.Errorf("entry of hash %#x points at region %d, whose key log holds no key of that hash", s.hash, r)
				}
			default:
				return fmt.Errorf("entry of hash %#x points at region %d in state %d", s.hash, r, st)
			}
		}
	}
	bytes := int64(0)
	for i := range c.idx.stripes {
		bytes += int64(len(c.idx.stripes[i].slots)) * int64(unsafe.Sizeof(slot{}))
	}
	for id := range c.regions.meta {
		m := &c.regions.meta[id]
		bytes += int64(cap(m.keys.data))
		if kl := &m.keys; kl.n-kl.dead != live[id] {
			return fmt.Errorf("region %d: key log holds %d keys, %d counted dead, and %d entries point into it", id, kl.n, kl.dead, live[id])
		} else if m.state != regionOpen && kl.n > 2*live[id]+compactFloor {
			return fmt.Errorf("region %d in state %d: key log holds %d keys for %d live ones", id, m.state, kl.n, live[id])
		}
	}
	if got := c.idx.indexBytes.Load(); got != bytes {
		return fmt.Errorf("indexBytes %d, the slots and key logs hold %d", got, bytes)
	}
	if got := c.Len(); got != n {
		return fmt.Errorf("Len %d, index holds %d entries", got, n)
	}
	keyed := 0
	c.eachEntry(func(string, entry) { keyed++ })
	if keyed != n {
		return fmt.Errorf("eachEntry finds keys for %d of %d entries", keyed, n)
	}
	return nil
}

// TestRegionLiveMatchesIndex runs seeded serial gets, sets, TTL sets,
// deletes, clock advances and seals through a one-shard frontend and checks
// the region-live invariant after every op, under each policy setting that
// changes what eviction and the read notes do, with the read index on and
// off.
func TestRegionLiveMatchesIndex(t *testing.T) {
	const (
		keys = 48
		ops  = 20000
	)
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"FIFO", FIFO},
		{"LRU", LRU},
	} {
		for _, fast := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/readindex=%v", tc.name, fast), func(t *testing.T) {
				c, err := New(Config{
					Store: newMemStore(6, 4096), TrackValues: true, ReadIndex: fast, Policy: tc.policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSharded([]*Cache{c})
				if err != nil {
					t.Fatal(err)
				}
				rng := testRNG{s: 7}
				for i := 0; i < ops; i++ {
					r := rng.next()
					k := fmt.Sprintf("live-%02d", r%keys)
					val := make([]byte, 100+int(r>>16%700))
					switch r >> 8 % 16 {
					case 0, 1, 2, 3, 4, 5, 6:
						_, _, err = s.Get(k)
					case 7, 8, 9:
						err = s.Set(k, val, 0)
					case 10, 11:
						err = s.SetTTL(k, val, 0, time.Duration(1+r>>32%3)*time.Second)
					case 12:
						s.Delete(k)
					case 13:
						s.Contains(k)
					case 14:
						s.WithShard(0, func(c *Cache) { c.Clock().Advance(700 * time.Millisecond) })
					default:
						s.WithShard(0, func(c *Cache) { err = c.SealOpen() })
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					s.WithShard(0, func(c *Cache) { err = regionLiveErr(c) })
					if err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
				st := s.Stats()
				if st.Evictions == 0 || st.Expirations == 0 {
					t.Fatalf("%d evictions, %d expirations: the run exercised too little",
						st.Evictions, st.Expirations)
				}
			})
		}
	}
}

// TestEntryIs24Bytes pins the index entry's size, and the slot's: a 64-bit
// hash and one 16-byte entry are the index's whole per-key cost beside the
// table's empty slots. A slot holds no pointer, so the collector never scans
// the tables; lock-free readers find a value's bytes through its region's
// image instead.
func TestEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(slot{}); n != 24 {
		t.Fatalf("slot is %d bytes, want 24", n)
	}
	if !pointerFree(reflect.TypeOf(slot{})) {
		t.Fatal("slot holds a pointer")
	}
}

// pointerFree reports whether a value of type t holds no pointer, so that
// the collector never scans a slice of them.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	default:
		return t.Kind() <= reflect.Complex128
	}
}

// TestIndexBytesFallOnCompaction pins the cache_index_bytes gauge, summed
// over shards: it is the slots' bytes plus the key logs' buffers, and it
// falls when deletes leave half of a sealed region's log dead and the log
// is compacted.
func TestIndexBytesFallOnCompaction(t *testing.T) {
	engines := make([]*Cache, 2)
	for i := range engines {
		c, err := New(Config{Store: newMemStore(8, 64<<10), Policy: FIFO})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = c
	}
	s, err := NewSharded(engines)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.MetricsInto(reg, obs.Labels{})
	// 64 keys of 32 bytes fill no region: sealing leaves each shard's log
	// whole, with every key live.
	key := func(i int) string { return fmt.Sprintf("compact-%024d", i) }
	for i := 0; i < 64; i++ {
		if err := s.Set(key(i), nil, 100); err != nil {
			t.Fatal(err)
		}
	}
	for sh := range engines {
		s.WithShard(sh, func(c *Cache) { err = c.SealOpen() })
		if err != nil {
			t.Fatal(err)
		}
	}
	before := gatherSum(t, reg, "cache_index_bytes")
	for i := 0; i < 64; i += 4 { // a quarter: no log compacts yet
		s.Delete(key(i))
	}
	if n := gatherSum(t, reg, "cache_key_log_compactions_total"); n != 0 {
		t.Fatalf("%v key logs compacted before any was half dead", n)
	}
	for i := 1; i < 64; i += 4 { // half
		s.Delete(key(i))
	}
	after := gatherSum(t, reg, "cache_index_bytes")
	if n := gatherSum(t, reg, "cache_key_log_compactions_total"); n != 2 {
		t.Fatalf("%v key logs compacted, want one per shard", n)
	}
	var logs float64
	for sh := range engines {
		s.WithShard(sh, func(c *Cache) {
			if err = regionLiveErr(c); err == nil {
				logs += float64(cap(c.regions.meta[c.regions.order.Front().Value.(int)].keys.data))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The compacted logs hold the 32 live keys of 2 + 32 bytes, exactly.
	if after >= before || logs != 32*34 {
		t.Fatalf("cache_index_bytes %v -> %v; the compacted logs hold %v bytes, want %d", before, after, logs, 32*34)
	}
}

// TestIndexAllocPerKey bounds the DRAM the index holds per key, as the
// cache_index_bytes gauge counts it (slots and key logs, not heap, so the
// figure repeats): 2^16 distinct 16-byte keys, set metadata-only into an
// engine with the read index off and one with it on, fill 24-byte slots to
// half, 48 bytes a key, beside key logs of 18 bytes a key and their append
// slack; 68.3 bytes a key in all. Slots of 32 bytes would take 84.3.
func TestIndexAllocPerKey(t *testing.T) {
	const n = 1 << 16
	for _, readIndex := range []bool{false, true} {
		c, err := New(Config{Store: newMemStore(64, 1<<20), ReadIndex: readIndex})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.Set(fmt.Sprintf("idx-%012d", i), nil, 16); err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		c.MetricsInto(reg, obs.Labels{})
		if perKey := gatherSum(t, reg, "cache_index_bytes") / n; perKey > 70 {
			t.Errorf("read index %v: the index holds %.1f bytes a key, want at most 70", readIndex, perKey)
		}
	}
}
