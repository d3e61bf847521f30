package cache

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestCollisionOracle runs a seeded stream of sets, overwrites, nil-value
// inserts (whose value is valLen zero bytes), TTL sets, deletes, clock
// advances, seals, snapshot → restore cycles and GetMulti batches through
// two engines whose index hash keeps 4 bits (collideHashes), so every key
// shares its hash with several others and the index holds at most 15
// entries per engine. The item-bytes key check is then all that tells keys
// apart: every hit must return the last value set for its key (colliding
// keys may only miss), and no region may be quarantined. After every op,
// with the read index on and off, the region-live invariant must hold
// (every entry's key in its region's log, dead counts exact, no sealed log
// above twice its live keys plus the compaction floor), and eachEntry must
// agree with the model: each key it yields is the one its entry's item
// holds, with the last value set for it.
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
				var restores int
				var compactions, evictions, expirations uint64
				last := map[string][]byte{} // key -> last value set; absent once deleted
				var hits, liveMisses int
				batch := make([]string, 8)
				vals, found, errs := make([][]byte, 8), make([]bool, 8), make([]error, 8)
				rng := testRNG{s: 11}
				for i := 0; i < ops; i++ {
					r := rng.next()
					k := keys[r%nkeys]
					valLen := 100 + int(r>>16%600)
					op := r >> 8 % 16
					if op == 15 && r>>52%8 == 0 {
						op = 16 // one seal in eight is a snapshot → restore instead
					}
					switch op {
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
					case 15:
						s.WithShard(int(r>>40%2), func(c *Cache) { err = c.SealOpen() })
						if err != nil {
							t.Fatalf("op %d: seal: %v", i, err)
						}
					default:
						// Snapshot → restore, as across a restart: the open
						// region's keys are lost (misses), the restored engine
						// hashes under a new seed, narrowed again, so other keys
						// collide, and its key logs are rebuilt from the entries.
						sh := int(r >> 40 % 2)
						old := engines[sh]
						snap, err := old.Snapshot()
						if err != nil {
							t.Fatalf("op %d: snapshot: %v", i, err)
						}
						c, err := New(Config{Store: old.store, Clock: old.Clock(), TrackValues: true, ReadIndex: fast, Policy: policy})
						if err != nil {
							t.Fatal(err)
						}
						collideHashes(c)
						if err := c.restore(snap); err != nil {
							t.Fatalf("op %d: restore: %v", i, err)
						}
						compactions += old.compactions.Load()
						evictions += old.evicts.Load()
						expirations += old.expirations.Load()
						engines[sh] = c
						if s, err = NewSharded(engines); err != nil {
							t.Fatal(err)
						}
						restores++
					}
					for sh := range engines {
						s.WithShard(sh, func(c *Cache) {
							err = regionLiveErr(c)
							if err == nil && c.Len() > 15 {
								err = fmt.Errorf("%d entries under a 4-bit hash", c.Len())
							}
							if err == nil {
								err = entriesMatchModel(c, last)
							}
						})
						if err != nil {
							t.Fatalf("after op %d, shard %d: %v", i, sh, err)
						}
					}
				}
				st := s.Stats()
				for _, c := range engines {
					compactions += c.compactions.Load()
				}
				evictions += st.Evictions
				expirations += st.Expirations
				t.Logf("%d hits, %d misses of live keys, %d evictions, %d expirations, %d key-log compactions, %d restores",
					hits, liveMisses, evictions, expirations, compactions, restores)
				if hits == 0 || liveMisses == 0 || evictions == 0 || expirations == 0 || compactions == 0 || restores == 0 {
					t.Fatal("the run exercised too little")
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

// entriesMatchModel checks eachEntry against the item bytes and the model,
// last (key -> last value set; absent once deleted): every key it yields
// once, as its hash's entry, and that entry's item is the key's and holds
// its last value. An engine over a memStore with TrackValues only.
func entriesMatchModel(c *Cache, last map[string][]byte) (err error) {
	seen := map[string]bool{}
	c.eachEntry(func(k string, e entry) {
		want, live := last[k]
		item := c.regions.meta[e.region].buf
		if item == nil {
			item = c.store.(*memStore).data[int(e.region)]
		}
		item = item[e.offset:]
		switch {
		case err != nil:
		case seen[k]:
			err = fmt.Errorf("eachEntry yields %s twice", k)
		case !live:
			err = fmt.Errorf("eachEntry yields %s, which was deleted", k)
		case entryOf(c, k) != e:
			err = fmt.Errorf("eachEntry yields %s with %+v, its hash's entry is %+v", k, e, entryOf(c, k))
		case !itemIs(item, k):
			err = fmt.Errorf("eachEntry yields %s for region %d offset %d, whose item is another key's", k, e.region, e.offset)
		case !bytes.Equal(item[itemHeaderSize+len(k):][:e.valLen], want):
			err = fmt.Errorf("eachEntry yields %s for an item without its last value", k)
		}
		seen[k] = true
	})
	return err
}
