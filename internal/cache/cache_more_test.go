package cache

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func TestWouldBlockStates(t *testing.T) {
	st := newMemStore(8, 4096)
	st.writeLat = 50 * time.Millisecond
	c, err := New(Config{Store: st, BufferMemory: 8192}) // pipeline depth 1
	if err != nil {
		t.Fatal(err)
	}
	// Empty open region: plenty of room, never blocks.
	if c.WouldBlock(4, 1000) {
		t.Fatal("WouldBlock true on empty region")
	}
	// Fill the open region so the next insert must roll, and saturate the
	// pipeline with an in-flight flush.
	for i := 0; i < 3; i++ {
		c.Set(fmt.Sprintf("k%d", i), nil, 1000)
	}
	c.Set("roll", nil, 1000) // rolls region 0: flush in flight (50ms)
	for i := 0; i < 2; i++ {
		c.Set(fmt.Sprintf("fill%d", i), nil, 1000)
	}
	// Open region is nearly full again and the only buffer slot is still
	// flushing: a roll-requiring insert would block.
	if !c.WouldBlock(4, 2100) {
		t.Fatal("WouldBlock false with saturated pipeline and full region")
	}
	// An insert that fits the open region never blocks.
	if c.WouldBlock(1, 1) {
		t.Fatal("WouldBlock true for an item that fits")
	}
}

func TestDrainIdempotent(t *testing.T) {
	c, _ := newTestCache(t, 8, 4096)
	for i := 0; i < 20; i++ {
		c.Set(fmt.Sprintf("k%d", i), nil, 1000)
	}
	c.Drain()
	before := c.Clock().Now()
	c.Drain()
	if c.Clock().Now() != before {
		t.Fatal("second Drain advanced time")
	}
}

func TestOverwriteDecrementsOldRegionLive(t *testing.T) {
	c, _ := newTestCache(t, 8, 4096)
	c.Set("k", nil, 1000)
	// Push "k"'s region out by filling, then overwrite k.
	for i := 0; i < 3; i++ {
		c.Set(fmt.Sprintf("f%d", i), nil, 1000)
	}
	oldRegion := entryOf(c, "k").region()
	c.Set("k", nil, 1000)
	if entryOf(c, "k").region() == oldRegion {
		t.Fatal("overwrite stayed in a sealed region")
	}
	if c.regions.meta[oldRegion].live != 3 {
		t.Fatalf("old region live = %d, want 3 after overwrite", c.regions.meta[oldRegion].live)
	}
}

// TestHitsSaturateWithoutOverflow: with reinsertion on, the hit counter
// saturates at 255; with it off nothing reads the counter, so it stays 0.
func TestHitsSaturateWithoutOverflow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   Policy
		reinsert uint8
		want     uint8
	}{
		{"LRU/reinsert=1", LRU, 1, 255},
		{"FIFO/reinsert=0", FIFO, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTestCache(t, 4, 64<<10, func(cfg *Config) {
				cfg.Policy = tc.policy
				cfg.ReinsertHits = tc.reinsert
			})
			c.Set("k", nil, 10)
			for i := 0; i < 300; i++ { // > 255 accesses
				if _, ok, _ := c.Get("k"); !ok {
					t.Fatal("lost key")
				}
			}
			if got := entryOf(c, "k").hits(); got != tc.want {
				t.Fatalf("hits = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestFillLogSeqContinuesAcrossEvictions(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096)
	for i := 0; c.Stats().Evictions < 5; i++ {
		c.Set(fmt.Sprintf("key-%06d", i), nil, 1000)
	}
	log := c.FillLog()
	for i := 1; i < len(log); i++ {
		if log[i].Seq != log[i-1].Seq+1 {
			t.Fatalf("fill seq gap at %d", i)
		}
	}
}

func TestMetadataGetFromSealedRegion(t *testing.T) {
	// Without TrackValues, sealed-region gets still pay the device read and
	// return found=true with nil payload.
	st := newMemStore(8, 4096)
	st.readLat = 5 * time.Millisecond
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	c.Set("k0", nil, 1000)
	for i := 1; i < 8; i++ {
		c.Set(fmt.Sprintf("k%d", i), nil, 1000)
	}
	c.Drain()
	before := c.Clock().Now()
	v, ok, err := c.Get("k0")
	if err != nil || !ok || v != nil {
		t.Fatalf("Get = (%v, %v, %v)", v, ok, err)
	}
	if c.Clock().Now()-before < 5*time.Millisecond {
		t.Fatal("sealed metadata get skipped the device read")
	}
}

func TestInvalidateRegionIgnoresNonSealed(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	c.Set("k", nil, 10)
	c.InvalidateRegion(0) // region 0 is open
	if !c.Contains("k") {
		t.Fatal("InvalidateRegion dropped the open region")
	}
	c.InvalidateRegion(-1) // out of range: must not panic
	c.InvalidateRegion(99)
}

func TestRegionDroppableBounds(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096)
	if c.RegionDroppable(-1, 1) || c.RegionDroppable(99, 1) {
		t.Fatal("out-of-range region droppable")
	}
	if c.RegionDroppable(0, 1) {
		t.Fatal("open region droppable")
	}
	// Seal regions, then the coldest must be droppable at frac 1.0.
	for i := 0; i < 12; i++ {
		c.Set(fmt.Sprintf("k%d", i), nil, 1000)
	}
	c.Drain()
	found := false
	for id := 0; id < 4; id++ {
		if c.RegionDroppable(id, 1.0) {
			found = true
		}
	}
	if !found {
		t.Fatal("no sealed region droppable at coldFrac=1.0")
	}
	// coldFrac 0 never drops.
	for id := 0; id < 4; id++ {
		if c.RegionDroppable(id, 0) {
			t.Fatal("droppable at coldFrac=0")
		}
	}
}

func TestBufferMemoryBelowRegionRejected(t *testing.T) {
	st := newMemStore(4, 64<<10)
	if _, err := New(Config{Store: st, BufferMemory: 4096}); err == nil {
		t.Fatal("BufferMemory < RegionSize accepted")
	}
}

func TestStatsReinsertionsCounted(t *testing.T) {
	st := newMemStore(4, 4096)
	c, _ := New(Config{Store: st, ReinsertHits: 1, Policy: FIFO})
	c.Set("hot", nil, 1000)
	c.Get("hot")
	for i := 0; c.Stats().Evictions < 3; i++ {
		c.Set(fmt.Sprintf("cold%05d", i), nil, 1000)
	}
	if c.Stats().Reinsertions == 0 {
		t.Fatal("reinsertions not counted in stats")
	}
}

func TestTTLExpiryOnVirtualClock(t *testing.T) {
	c, _ := newTestCache(t, 4, 64<<10)
	if err := c.SetTTL("short", []byte("v"), 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Set("forever", []byte("v"), 0)
	if _, ok, _ := c.Get("short"); !ok {
		t.Fatal("item expired immediately")
	}
	// Advance the virtual clock past the TTL.
	c.Clock().Advance(5 * time.Second)
	if _, ok, _ := c.Get("short"); ok {
		t.Fatal("item survived its TTL")
	}
	if c.Stats().Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", c.Stats().Expirations)
	}
	if _, ok, _ := c.Get("forever"); !ok {
		t.Fatal("no-TTL item expired")
	}
	// Re-setting the key resurrects it with a fresh TTL.
	c.SetTTL("short", []byte("v2"), 0, time.Hour)
	if _, ok, _ := c.Get("short"); !ok {
		t.Fatal("re-set item missing")
	}
}

func TestTTLSurvivesSnapshot(t *testing.T) {
	st := newMemStore(4, 64<<10)
	c, _ := New(Config{Store: st, TrackValues: true})
	c.SetTTL("k", []byte("v"), 0, time.Second)
	// Seal the region so the key survives the restart (open-region keys
	// are dropped by design).
	for i := 0; i < 70; i++ {
		c.Set(fmt.Sprintf("fill-%03d", i), make([]byte, 1000), 0)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clock := c.Clock()
	r, err := Restore(Config{Store: st, TrackValues: true, Clock: clock}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get("k"); !ok {
		t.Skip("key landed in the open region; TTL persistence untestable here")
	}
	clock.Advance(time.Hour)
	if _, ok, _ := r.Get("k"); ok {
		t.Fatal("TTL lost across snapshot/restore")
	}
}

// TestReinsertionKeepsTTL: a reinserted item keeps its TTL deadline; it used
// to be re-appended without one and served long past it.
func TestReinsertionKeepsTTL(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096, func(cfg *Config) {
		cfg.ReinsertHits = 1
		cfg.Policy = FIFO
	})
	if err := c.SetTTL("hot", bytes.Repeat([]byte{0xAD}, 1000), 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Get("hot")
	for i := 0; c.Stats().Reinsertions == 0; i++ {
		c.Set(fmt.Sprintf("cold-%04d", i), bytes.Repeat([]byte{1}, 1000), 0)
	}
	if c.Clock().Now() >= 10*time.Second {
		t.Fatalf("reinsertion came after the deadline, at %v", c.Clock().Now())
	}
	c.Clock().Advance(20 * time.Second)
	if _, ok, _ := c.Get("hot"); ok {
		t.Fatal("reinserted item served past its TTL")
	}
}

// TestReinsertionLeavesRoomForRollingItem: reinsertion into the fresh region
// stops short of the room the item that rolled it needs. It used to fill the
// region, and the item then overran it.
func TestReinsertionLeavesRoomForRollingItem(t *testing.T) {
	c, _ := newTestCache(t, 4, 4096, func(cfg *Config) {
		cfg.ReinsertHits = 1
		cfg.Policy = FIFO
	})
	// Four 1000-byte items fill a region: the first region's are all hot.
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1000) }
	for i := 0; c.Stats().Evictions == 0; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := c.Set(k, val(i), 0); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			c.Get(k)
		}
		if got, ok, _ := c.Get(k); !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%s) after its Set = (%d bytes, %v)", k, len(got), ok)
		}
		if m := &c.regions.meta[c.regions.open]; m.fill > 4096 {
			t.Fatalf("open region holds %d bytes", m.fill)
		}
	}
	if c.Stats().Reinsertions == 0 {
		t.Fatal("nothing was reinserted")
	}
}
