package cache

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
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
// reopened.
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
// hash and one entry are the index's whole per-key cost beside the table's
// empty slots.
func TestEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 24 {
		t.Fatalf("entry is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(slot{}); n != 32 {
		t.Fatalf("slot is %d bytes, want 32", n)
	}
}
