package cache

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestCollisionOracle runs a seeded stream of sets, overwrites, nil-value
// inserts (whose value is valLen zero bytes), TTL sets, deletes, clock
// advances, seals and GetMulti batches through two engines
// whose index hash keeps 4 bits (collideHashes), so every key shares its
// hash with several others and the index holds at most 15 entries per
// engine. The item-bytes key check is then all that tells keys apart: every
// hit must return the last value set for its key (colliding keys may only
// miss), no region may be quarantined, and the region-live invariant must
// hold after every op, with the read index on and off.
func TestCollisionOracle(t *testing.T) {
	const (
		nkeys = 64
		ops   = 6000
	)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("coll-%d", i*i) // 6 to 9 bytes: lengths collide too
	}
	for _, fast := range []bool{true, false} {
		for _, policy := range []Policy{LRU, FIFO} {
			t.Run(fmt.Sprintf("readindex=%v/policy=%d", fast, policy), func(t *testing.T) {
				engines := make([]*Cache, 2)
				for i := range engines {
					c, err := New(Config{Store: newMemStore(8, 4096), TrackValues: true, ReadIndex: fast, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					collideHashes(c)
					engines[i] = c
				}
				s, err := NewSharded(engines)
				if err != nil {
					t.Fatal(err)
				}
				last := map[string][]byte{} // key -> last value set; absent once deleted
				var hits, liveMisses int
				batch := make([]string, 8)
				vals, found, errs := make([][]byte, 8), make([]bool, 8), make([]error, 8)
				rng := testRNG{s: 11}
				for i := 0; i < ops; i++ {
					r := rng.next()
					k := keys[r%nkeys]
					valLen := 100 + int(r>>16%600)
					switch r >> 8 % 16 {
					case 0, 1, 2, 3, 4, 5, 6:
						n := 1 + int(r>>24%8)
						for j := range batch[:n] {
							batch[j] = keys[rng.next()%nkeys]
						}
						s.GetMulti(batch[:n], vals[:n], found[:n], errs[:n])
						for j, bk := range batch[:n] {
							if errs[j] != nil {
								t.Fatalf("op %d: get %s: %v", i, bk, errs[j])
							}
							want, live := last[bk]
							switch {
							case found[j] && !bytes.Equal(vals[j], want):
								t.Fatalf("op %d: %s hit %.20q..., its last value set is %.20q... (live %v)", i, bk, vals[j], want, live)
							case found[j]:
								hits++
							case live:
								liveMisses++
							}
						}
					case 7, 8, 9:
						v := opValue(k, i, valLen)
						arg := v
						if r>>48%3 == 0 {
							arg, v = nil, make([]byte, valLen)
						}
						if err := s.Set(k, arg, valLen); err != nil {
							t.Fatalf("op %d: set %s: %v", i, k, err)
						}
						last[k] = v
					case 10, 11:
						v := opValue(k, i, valLen)
						if err := s.SetTTL(k, v, 0, time.Duration(1+r>>32%3)*time.Second); err != nil {
							t.Fatalf("op %d: set %s: %v", i, k, err)
						}
						last[k] = v
					case 12, 13:
						s.Delete(k)
						delete(last, k)
					case 14:
						s.WithShard(int(r>>40%2), func(c *Cache) { c.Clock().Advance(700 * time.Millisecond) })
					default:
						s.WithShard(int(r>>40%2), func(c *Cache) { err = c.SealOpen() })
						if err != nil {
							t.Fatalf("op %d: seal: %v", i, err)
						}
					}
					for sh := range engines {
						s.WithShard(sh, func(c *Cache) {
							err = regionLiveErr(c)
							if err == nil && c.Len() > 15 {
								err = fmt.Errorf("%d entries under a 4-bit hash", c.Len())
							}
						})
						if err != nil {
							t.Fatalf("after op %d, shard %d: %v", i, sh, err)
						}
					}
				}
				st := s.Stats()
				t.Logf("%d hits, %d misses of live keys, %d evictions, %d expirations", hits, liveMisses, st.Evictions, st.Expirations)
				if hits == 0 || liveMisses == 0 || st.Evictions == 0 || st.Expirations == 0 {
					t.Fatalf("%d hits, %d misses of live keys, %d evictions, %d expirations: the run exercised too little",
						hits, liveMisses, st.Evictions, st.Expirations)
				}
				// A shared hash is the index's doing, not the store's: it must
				// not charge sound regions toward quarantine.
				if st.Quarantined != 0 {
					t.Fatalf("%d regions quarantined over sound bytes", st.Quarantined)
				}
			})
		}
	}
}
