package cache

import (
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
	c, _ := newTestCache(t, 8, 4096)
	if c.RegionDroppable(-1) || c.RegionDroppable(99) {
		t.Fatal("out-of-range region droppable")
	}
	if c.RegionDroppable(0) {
		t.Fatal("open region droppable")
	}
	// Fill every region: the coldest coldFrac of the order, the victim end,
	// is droppable; the order's front and the open region are not.
	for i := 0; i < 24; i++ {
		c.Set(fmt.Sprintf("k%d", i), nil, 1000)
	}
	c.Drain()
	order := c.regions.order
	want := int(float64(order.Len()) * coldFrac)
	if want == 0 {
		t.Fatalf("%d regions in the order leave no cold tail", order.Len())
	}
	n := 0
	for id := 0; id < 8; id++ {
		if c.RegionDroppable(id) {
			n++
		}
	}
	if n != want {
		t.Fatalf("%d regions droppable, want %d of %d", n, want, order.Len())
	}
	if !c.RegionDroppable(order.Back().Value.(int)) {
		t.Fatal("the eviction victim is not droppable")
	}
	if c.RegionDroppable(order.Front().Value.(int)) || c.RegionDroppable(c.regions.open) {
		t.Fatal("the newest or the open region is droppable")
	}
}

func TestBufferMemoryBelowRegionRejected(t *testing.T) {
	st := newMemStore(4, 64<<10)
	if _, err := New(Config{Store: st, BufferMemory: 4096}); err == nil {
		t.Fatal("BufferMemory < RegionSize accepted")
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

	// A 2 s TTL set at 0 s ends at 2 s, whatever the set's own CPU cost.
	w, _ := newTestCache(t, 4, 64<<10)
	w.SetTTL("whole", []byte("v"), 0, 2*time.Second)
	liveAt := func(at time.Duration) bool {
		w.Clock().AdvanceTo(at - DefaultCPUModel().IndexLookup) // Contains looks up at at
		return w.Contains("whole")
	}
	if before, after := liveAt(2*time.Second-1), liveAt(2*time.Second); !before || after {
		t.Fatalf("2 s TTL set at 0 s: live at 2s-1ns %v, at 2s %v; want true, false", before, after)
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
