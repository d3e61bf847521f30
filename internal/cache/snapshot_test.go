package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"znscache/internal/device"
)

// TestSnapshotBytesRepeat: two snapshots of an idle engine are the same
// bytes, because entries come in key-log order, and hold every indexed key
// once, with the read index off and on.
func TestSnapshotBytesRepeat(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("readindex=%v", fast), func(t *testing.T) {
			c, err := New(Config{Store: newMemStore(16, 64<<10), TrackValues: true, ReadIndex: fast})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("snap-%05d", i)
				if err := c.Set(k, bytes.Repeat([]byte{byte(i)}, 200+i%300), 0); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					c.Delete(fmt.Sprintf("snap-%05d", i/2))
				}
				if i%5 == 0 {
					c.Set(fmt.Sprintf("snap-%05d", i/3), []byte("again"), 0)
				}
			}
			a, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("two snapshots of an idle engine differ (%d and %d bytes)", len(a), len(b))
			}
			keys, err := SnapshotKeys(a)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != c.Len() {
				t.Fatalf("snapshot holds %d keys, the index %d", len(keys), c.Len())
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("key %s snapshotted twice", keys[i])
				}
			}
		})
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	st := newMemStore(8, 4096)
	// One region of BufferMemory: the restored engine may hold exactly one
	// buffer, so the one New gave region 0 must move to the open region.
	cfg := Config{Store: st, TrackValues: true, BufferMemory: 4096}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill several regions so some are sealed and at least one eviction ran.
	vals := map[string][]byte{}
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 900)
		vals[k] = v
		if err := c.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]bool{}
	for k := range vals {
		before[k] = c.Contains(k)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// "Restart": a brand-new engine over the same store contents.
	r, err := Restore(cfg, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.regions.open == 0 {
		t.Fatal("snapshot's open region is 0: the buffer hand-over goes untested")
	}
	checkBufferBound(t, r)

	recoveredHits := 0
	for k, wasThere := range before {
		got, ok, err := r.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after restore: %v", k, err)
		}
		if !wasThere && ok {
			t.Fatalf("key %s appeared after restore", k)
		}
		if !ok {
			continue // open-region keys are legitimately dropped
		}
		recoveredHits++
		if !bytes.Equal(got, vals[k]) {
			t.Fatalf("key %s corrupted across restore", k)
		}
	}
	if recoveredHits == 0 {
		t.Fatal("no sealed keys recovered; test vacuous")
	}
	// The restored engine keeps working: inserts and evictions proceed.
	for i := 0; i < 30; i++ {
		if err := r.Set(fmt.Sprintf("new-%04d", i), bytes.Repeat([]byte{7}, 900), 0); err != nil {
			t.Fatalf("post-restore Set: %v", err)
		}
	}
	if !r.Contains("new-0029") {
		t.Fatal("post-restore inserts not readable")
	}
	checkBufferBound(t, r)
}

func TestSnapshotDropsOpenRegionKeys(t *testing.T) {
	st := newMemStore(8, 64<<10)
	c, _ := New(Config{Store: st, TrackValues: true})
	c.Set("buffered", []byte("in-dram-only"), 0)
	snap, _ := c.Snapshot()
	r, err := Restore(Config{Store: st, TrackValues: true}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Contains("buffered") {
		t.Fatal("open-region (DRAM-only) key survived a restart")
	}
}

func TestRestoreRejectsMismatchedStore(t *testing.T) {
	st := newMemStore(8, 4096)
	c, _ := New(Config{Store: st})
	snap, _ := c.Snapshot()
	other := newMemStore(16, 4096)
	if _, err := Restore(Config{Store: other}, snap); err == nil {
		t.Fatal("restore against different store geometry succeeded")
	}
	if _, err := Restore(Config{Store: st}, []byte("garbage")); err == nil {
		t.Fatal("restore from garbage succeeded")
	}
}

// TestRestoreRejectsMisplacedRegions: a snapshot whose eviction order, free
// list and open region do not partition its regions by state would break a
// region transition later. Restore rejects it with an error.
func TestRestoreRejectsMisplacedRegions(t *testing.T) {
	c, _ := newTestCache(t, 8, 4096)
	for i := 0; i < 12; i++ {
		c.Set(fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{byte(i)}, 900), 0)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(s *snapshotData)
	}{
		{"open region free", func(s *snapshotData) {
			s.Regions[s.Open].State = regionFree
			s.Free = append(s.Free, s.Open)
		}},
		{"second open region", func(s *snapshotData) {
			s.Regions[s.Free[0]].State = regionOpen
			s.Free = s.Free[1:]
		}},
		{"sealed region outside the order", func(s *snapshotData) { s.Order = s.Order[1:] }},
		{"free region off the free list", func(s *snapshotData) { s.Free = s.Free[1:] }},
		{"quarantined region in the order", func(s *snapshotData) { s.Regions[s.Order[0]].State = regionQuarantined }},
	} {
		var s snapshotData
		if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&s); err != nil {
			t.Fatal(err)
		}
		tc.edit(&s)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(Config{Store: newMemStore(8, 4096), TrackValues: true}, buf.Bytes()); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}
}

// TestChecksumDetectsCorruption damages a sealed item that spans several
// sectors in every way a store, a migration or stale recovery metadata
// could, one way per case. The engine must never serve such bytes: each case
// is a miss that drops the key and counts it lost.
func TestChecksumDetectsCorruption(t *testing.T) {
	const sector = device.SectorSize
	want := make([]byte, 3*sector)
	for i := range want {
		want[i] = byte(i*7 + i/sector)
	}
	// fixture is a cache with "victim" (the first item of its region) sealed
	// beside at least one more sealed region of other items.
	type fixture struct {
		c                *Cache
		st               *memStore
		e                entry  // the victim's index entry
		data             []byte // the victim's region as stored
		valStart, valEnd int    // the victim's value within data
	}
	build := func(t *testing.T) fixture {
		t.Helper()
		st := newMemStore(8, 8*sector)
		c, err := New(Config{Store: st, TrackValues: true})
		if err != nil {
			t.Fatal(err)
		}
		c.Set("victim", want, 0)
		for i := 0; c.Stats().Flushes < 2; i++ {
			c.Set(fmt.Sprintf("fill-%04d", i), bytes.Repeat([]byte{byte(9 + i)}, 5000), 0)
		}
		c.Drain()
		// Sanity: the intact item passes the checksum.
		if got, ok, err := c.Get("victim"); !ok || err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pre-corruption Get = (%v, %v)", ok, err)
		}
		e := entryOf(c, "victim")
		valStart := int(e.valueOff(len("victim")))
		return fixture{c, st, e, st.data[int(e.region)], valStart, valStart + int(e.valLen)}
	}
	f := build(t)
	firstSec, lastSec := f.valStart/sector, (f.valEnd-1)/sector
	if lastSec-firstSec < 2 {
		t.Fatalf("victim spans sectors %d..%d, want at least three", firstSec, lastSec)
	}
	midSector := func(data []byte) []byte { return data[(firstSec+1)*sector : (firstSec+2)*sector] }

	// Each case damages the stored item (or the index) and returns the key
	// to look up.
	cases := map[string]func(t *testing.T, f fixture) string{
		"sector zeroed": func(t *testing.T, f fixture) string {
			clear(midSector(f.data))
			return "victim"
		},
		"sector of another region": func(t *testing.T, f fixture) string {
			for id, other := range f.st.data {
				if id == int(f.e.region) {
					continue
				}
				if bytes.Equal(midSector(f.data), midSector(other)) {
					t.Fatalf("regions %d and %d hold the same sector: the case damages nothing", f.e.region, id)
				}
				copy(midSector(f.data), midSector(other))
				return "victim"
			}
			t.Fatal("no second sealed region")
			return ""
		},
		// Stale recovery metadata: an index entry that points at another
		// key's intact item.
		"right bytes, different key of equal length": func(t *testing.T, f fixture) string {
			f.c.idx.put(f.c.idx.hash("mictiv"), f.e)
			return "mictiv"
		},
	}
	for sec := firstSec; sec <= lastSec; sec++ {
		at := sec*sector + 9
		if at < f.valStart {
			at = f.valStart
		}
		if at >= f.valEnd {
			at = f.valEnd - 1
		}
		cases[fmt.Sprintf("bit flip in sector %d", sec)] = func(t *testing.T, f fixture) string {
			f.data[at] ^= 0x10
			return "victim"
		}
	}

	// Each case is read both ways: through Get's private copy, and through
	// GetBuf verifying in place in a caller's buffer.
	reads := []struct {
		name string
		get  func(c *Cache, key string) ([]byte, bool, error)
	}{
		{"Get", (*Cache).Get},
		{"GetBuf", func(c *Cache, key string) ([]byte, bool, error) {
			return c.GetBuf(key, make([]byte, ReadSpan(len(key), len(want))))
		}},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			for _, via := range reads {
				t.Run(via.name, func(t *testing.T) {
					f := build(t)
					key := damage(t, f)
					lost := f.c.Stats().LostKeys
					val, ok, err := via.get(f.c, key)
					if err != nil {
						t.Fatalf("corrupted read errored: %v", err)
					}
					if ok || val != nil {
						t.Fatal("corrupted value passed the checksum")
					}
					if f.c.Contains(key) {
						t.Fatal("unverifiable key still indexed")
					}
					if got := f.c.Stats().LostKeys; got != lost+1 {
						t.Fatalf("LostKeys went %d -> %d, want one checksum drop counted", lost, got)
					}
				})
			}
		})
	}
}

// TestRestoredKeyReadsStore: a restored engine's entries have no image, so
// over a store that keeps flushed buffers, where the key was served lock-free
// before the snapshot, every get of a restored key falls to the locked path
// and reads the store once. A read into a caller's buffer is not kept:
// scribbling on the buffer cannot change what the next get serves. A
// zero-length value reads the store too.
func TestRestoredKeyReadsStore(t *testing.T) {
	for _, n := range []int{900, 0} {
		t.Run(fmt.Sprintf("%dB", n), func(t *testing.T) {
			st := newMemStore(8, 4096)
			cfg := Config{Store: st, TrackValues: true, ReadIndex: true}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*5 + 3)
			}
			c.Set("k", want, 0)
			for i := 0; c.Stats().Flushes < 2; i++ {
				c.Set(fmt.Sprintf("fill-%04d", i), bytes.Repeat([]byte{byte(i)}, 900), 0)
			}
			c.Drain()
			if _, found, done := c.TryFastGet("k"); !found || !done {
				t.Fatalf("sealed key before the snapshot: TryFastGet = (found %v, done %v), want a lock-free hit", found, done)
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, ReadSpan(len("k"), len(want)))
			for i := 0; i < 4; i++ {
				if _, _, done := r.TryFastGet("k"); done {
					t.Fatalf("get %d: restored key answered lock-free", i)
				}
				reads := st.reads
				got, ok, err := r.GetBuf("k", buf)
				if !ok || err != nil || !bytes.Equal(got, want) {
					t.Fatalf("get %d: GetBuf = (%v, %v), bytes equal %v", i, ok, err, bytes.Equal(got, want))
				}
				if st.reads != reads+1 {
					t.Fatalf("get %d: %d store reads, want 1", i, st.reads-reads)
				}
				for j := range buf {
					buf[j] = 0xAA
				}
			}
			if r.idx.imageOf(entryOf(r, "k").region) != nil {
				t.Fatal("a restored entry gained an image")
			}
		})
	}
}
