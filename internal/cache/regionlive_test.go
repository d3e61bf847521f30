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
// drained: every entry points at an open, flushing or sealed region, each
// such region's live count is the number of entries pointing at it, and Len
// counts every entry.
func regionLiveErr(c *Cache) error {
	c.drainReadNotes()
	count := make([]int, len(c.regions.meta))
	n := 0
	var err error
	c.idx.each(func(k string, e entry) {
		n++
		r := e.region()
		if r >= len(c.regions.meta) {
			err = fmt.Errorf("key %q: region %d", k, r)
			return
		}
		switch st := c.regions.meta[r].state; st {
		case regionOpen, regionFlushing, regionSealed:
			count[r]++
		default:
			err = fmt.Errorf("key %q points at region %d in state %d", k, r, st)
		}
	})
	if err != nil {
		return err
	}
	for i := range c.regions.meta {
		m := &c.regions.meta[i]
		switch m.state {
		case regionOpen, regionFlushing, regionSealed:
			if m.live != count[i] {
				return fmt.Errorf("region %d (state %d): live %d, %d entries point at it", i, m.state, m.live, count[i])
			}
		}
	}
	if got := c.Len(); got != n {
		return fmt.Errorf("Len %d, index holds %d entries", got, n)
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
		name     string
		policy   Policy
		reinsert uint8
	}{
		{"FIFO", FIFO, 0},
		{"LRU", LRU, 0},
		{"LRU/reinsert=2", LRU, 2},
	} {
		for _, fast := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/readindex=%v", tc.name, fast), func(t *testing.T) {
				c, err := New(Config{
					Store: newMemStore(6, 4096), TrackValues: true, ReadIndex: fast,
					Policy: tc.policy, ReinsertHits: tc.reinsert,
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
				if st.Evictions == 0 || st.Expirations == 0 || (tc.reinsert > 0) != (st.Reinsertions > 0) {
					t.Fatalf("%d evictions, %d expirations, %d reinsertions: the run exercised too little",
						st.Evictions, st.Expirations, st.Reinsertions)
				}
			})
		}
	}
}

// TestEntryIs24Bytes pins the index entry's size: one entry per key is the
// index's whole per-key cost beside the map's own slot.
func TestEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 24 {
		t.Fatalf("entry is %d bytes, want 24", n)
	}
}
