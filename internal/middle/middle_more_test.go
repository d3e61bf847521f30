package middle

import (
	"math/bits"
	"testing"

	"znscache/internal/device"
	"znscache/internal/zns"
)

func TestPlacementDeterministicPerSeed(t *testing.T) {
	build := func(seed uint64) map[int]mapping {
		l, err := New(newZNS(t, false), Config{
			RegionSize: testRegion, OpenZones: 4, MinEmptyZones: 3,
			PlacementSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 40; id++ {
			if _, err := l.WriteRegion(0, id, nil); err != nil {
				t.Fatal(err)
			}
		}
		out := map[int]mapping{}
		for id, m := range l.mapTable {
			out[id] = m
		}
		return out
	}
	a, b := build(7), build(7)
	for id, m := range a {
		if b[id] != m {
			t.Fatalf("same seed diverged at region %d: %v vs %v", id, m, b[id])
		}
	}
	c := build(8)
	same := true
	for id, m := range a {
		if c[id] != m {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placement (noise missing)")
	}
}

func TestVictimThresholdPrefersCheapZones(t *testing.T) {
	l := newLayer(t, false, func(c *Config) {
		c.MinEmptyZones = 6
		c.VictimValidRatio = 0.20
	})
	// Write each region once: zones fill, empty pool shrinks, GC starts
	// collecting — but with every region still live, only the emergency
	// path may take valid-heavy zones. With ample empty zones remaining,
	// no migration should happen.
	for id := 0; id < l.NumRegions()/2; id++ {
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.Migrated.Load() != 0 {
		t.Fatalf("GC migrated %d regions from fully-live zones with free space available",
			l.Migrated.Load())
	}
}

func TestReclaimCountsResetLatency(t *testing.T) {
	// A wholly-dead victim needs no migrations, so the only simulated time a
	// reclaim can take is the zone reset itself. GCTimeNs must still move:
	// dropping the Reset latency would report a free reclaim.
	l := newLayer(t, false, func(c *Config) {
		c.OpenZones = 1
		c.MinEmptyZones = 31 // keep GC permanently eager
		c.NumRegions = 64
	})
	rpz := l.regionsPerZone
	for id := 0; id < rpz; id++ {
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < rpz; id++ {
		l.EvictRegion(0, id)
	}
	// The next write's GC pass finds the dead zone and resets it.
	if _, err := l.WriteRegion(0, rpz, nil); err != nil {
		t.Fatal(err)
	}
	if l.Resets.Load() == 0 {
		t.Fatal("test vacuous: GC never reset the dead zone")
	}
	if l.Migrated.Load() != 0 {
		t.Fatalf("migrated %d regions from a wholly-dead zone", l.Migrated.Load())
	}
	if l.GCTimeNs.Load() == 0 {
		t.Fatal("pure-reset reclaim recorded zero GC time (Reset latency dropped)")
	}
}

func TestEmergencyGCRefusesFullyValidVictim(t *testing.T) {
	// Fill two zones with live regions only, then starve the empty pool to
	// the emergency threshold. A fully-valid victim reclaims nothing —
	// migrating it is pure write amplification — so the picker must refuse
	// even in an emergency.
	l := newLayer(t, false, func(c *Config) { c.OpenZones = 1 })
	rpz := l.regionsPerZone
	for id := 0; id < 2*rpz; id++ {
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.full) < 2 {
		t.Fatalf("test setup: %d full zones, want ≥ 2", len(l.full))
	}
	saved := l.empty
	l.empty = l.empty[:1]
	if _, ok := l.pickVictimLocked(); ok {
		t.Fatal("emergency GC picked a fully-valid zone (zero reclaimable slots)")
	}
	// With even one dead slot the emergency path must fire again.
	for z := range l.full {
		l.invalidateLocked(l.zones[z].regions[0])
		break
	}
	victim, ok := l.pickVictimLocked()
	if !ok {
		t.Fatal("emergency GC refused a zone with a reclaimable slot")
	}
	if v := bits.OnesCount64(l.zones[victim].bitmap); v == l.regionsPerZone {
		t.Fatalf("picked victim %d is fully valid", victim)
	}
	// Equally valid victims: the lowest zone wins every time, so a replay
	// does not depend on the order the full-zone map happens to yield.
	lowest := -1
	for z := range l.full {
		l.invalidateLocked(l.zones[z].regions[0]) // no-op where already dead
		if lowest == -1 || z < lowest {
			lowest = z
		}
	}
	for i := 0; i < 64; i++ {
		if victim, _ := l.pickVictimLocked(); victim != lowest {
			t.Fatalf("pick %d: victim %d among equally valid zones, want the lowest (%d)", i, victim, lowest)
		}
	}
	l.empty = saved
}

func TestEvictThenRewriteReusesSpaceViaGC(t *testing.T) {
	l := newLayer(t, false)
	n := l.NumRegions()
	// Two full passes of evict+rewrite over every region: the layer must
	// keep functioning purely by reclaiming dead zones.
	for pass := 0; pass < 2; pass++ {
		for id := 0; id < n; id++ {
			l.EvictRegion(0, id)
			if _, err := l.WriteRegion(0, id, nil); err != nil {
				t.Fatalf("pass %d region %d: %v", pass, id, err)
			}
		}
	}
	if l.MappedRegions() != n {
		t.Fatalf("mapped %d, want %d", l.MappedRegions(), n)
	}
	if l.Resets.Load() == 0 {
		t.Fatal("no zone was reclaimed across two full passes")
	}
}

func TestReadRegionPartialSpans(t *testing.T) {
	l := newLayer(t, true)
	data := make([]byte, testRegion)
	for i := range data {
		data[i] = byte(i / device.SectorSize)
	}
	l.WriteRegion(0, 3, data)
	// Read each sector individually and verify placement math.
	got := make([]byte, device.SectorSize)
	for s := 0; s < testRegion/device.SectorSize; s++ {
		if _, err := l.ReadRegion(0, 3, got, len(got), int64(s)*device.SectorSize); err != nil {
			t.Fatalf("sector %d: %v", s, err)
		}
		if got[0] != byte(s) {
			t.Fatalf("sector %d returned sector %d's data", s, got[0])
		}
	}
}

func TestDeviceWAIsAlwaysOne(t *testing.T) {
	// The ZNS device itself never amplifies: flash programs == host sectors
	// even while the middle layer migrates (its GC writes are host writes
	// from the device's perspective).
	l := newLayer(t, false)
	churn(t, l, 4)
	dev := l.Device().(*zns.Device)
	hostSectors := dev.HostWrites.Load() / uint64(device.SectorSize)
	if progs := dev.Array().Programs.Load(); progs != hostSectors {
		t.Fatalf("device programs %d != host sectors %d", progs, hostSectors)
	}
}
