package cache

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// sizedStore is a memStore that reports a configurable readable extent per
// region, modelling a zone whose write pointer ended up short of what the
// snapshot recorded (torn flush, post-snapshot reset).
type sizedStore struct {
	*memStore
	avail map[int]int64 // readable-bytes override; absent → whole region
}

func (s *sizedStore) RegionReadableBytes(id int) (int64, bool) {
	if v, ok := s.avail[id]; ok {
		return v, true
	}
	return s.regionSize, true
}

// fillSealed builds a cache over ss, fills enough regions to seal several,
// and returns the written values plus a sealed region holding at least two
// entries, sorted by offset.
func fillSealed(t *testing.T, ss *sizedStore) (*Cache, map[string][]byte, int, []entry, []string) {
	t.Helper()
	c, err := New(Config{Store: ss, TrackValues: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 900)
		vals[k] = v
		if err := c.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	byRegion := map[int][]string{}
	c.idx.each(func(k string, e entry) {
		if int(e.region) != c.regions.open && c.regions.meta[e.region].state == regionSealed {
			byRegion[int(e.region)] = append(byRegion[int(e.region)], k)
		}
	})
	for id, keys := range byRegion {
		if len(keys) < 2 {
			continue
		}
		sort.Slice(keys, func(a, b int) bool {
			return entryOf(c, keys[a]).offset < entryOf(c, keys[b]).offset
		})
		ents := make([]entry, len(keys))
		for i, k := range keys {
			ents[i] = entryOf(c, k)
		}
		return c, vals, id, ents, keys
	}
	t.Fatal("no sealed region with two entries; test setup broken")
	return nil, nil, 0, nil, nil
}

// TestRestoreTruncatesOverstatedFill is the regression test for the repair
// pass: when a restored region's snapshot Fill exceeds what the store can
// actually serve, Restore truncates to the readable extent — entries past
// it are dropped and counted, entries before it keep working.
func TestRestoreTruncatesOverstatedFill(t *testing.T) {
	ss := &sizedStore{memStore: newMemStore(8, 4096), avail: map[int]int64{}}
	c, vals, victim, ents, keys := fillSealed(t, ss)

	// The store now claims only the first entry's bytes are readable.
	first := ents[0]
	cut := int64(first.offset) + first.itemSize(len(keys[0]))
	ss.avail[victim] = cut

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(Config{Store: ss, TrackValues: true}, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.regions.meta[victim].fill != cut {
		t.Errorf("region %d fill = %d after repair, want %d", victim, r.regions.meta[victim].fill, cut)
	}
	got, ok, err := r.Get(keys[0])
	if err != nil || !ok {
		t.Fatalf("surviving key %s: Get = (%v, %v)", keys[0], ok, err)
	}
	if !bytes.Equal(got, vals[keys[0]]) {
		t.Fatalf("surviving key %s corrupted by repair", keys[0])
	}
	for _, k := range keys[1:] {
		if r.Contains(k) {
			t.Errorf("key %s beyond the readable extent survived restore", k)
		}
		if _, ok, err := r.Get(k); ok || err != nil {
			t.Errorf("truncated key %s: Get = (%v, %v), want clean miss", k, ok, err)
		}
	}
	if drops := r.Stats().RestoreDrops; drops != uint64(len(keys)-1) {
		t.Errorf("RestoreDrops = %d, want %d", drops, len(keys)-1)
	}
}

// TestRestoreFreesUnreadableRegion covers the extreme repair: a sealed
// region with nothing readable returns to the free pool, and every one of
// its entries is dropped.
func TestRestoreFreesUnreadableRegion(t *testing.T) {
	ss := &sizedStore{memStore: newMemStore(8, 4096), avail: map[int]int64{}}
	c, _, victim, _, keys := fillSealed(t, ss)
	ss.avail[victim] = 0

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(Config{Store: ss, TrackValues: true}, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st := r.regions.meta[victim].state; st != regionFree {
		t.Errorf("fully unreadable region %d in state %d, want free", victim, st)
	}
	for _, k := range keys {
		if r.Contains(k) {
			t.Errorf("key %s survived a fully unreadable region", k)
		}
	}
	if drops := r.Stats().RestoreDrops; drops < uint64(len(keys)) {
		t.Errorf("RestoreDrops = %d, want at least %d", drops, len(keys))
	}
	// The freed region must be reusable: keep inserting and verify service.
	for i := 0; i < 30; i++ {
		if err := r.Set(fmt.Sprintf("re-%03d", i), bytes.Repeat([]byte{7}, 900), 0); err != nil {
			t.Fatalf("post-repair Set: %v", err)
		}
	}
	if !r.Contains("re-029") {
		t.Fatal("post-repair inserts not readable")
	}
}
