package middle

import (
	"bytes"
	"fmt"
	"testing"

	"znscache/internal/device"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/sim"
	"znscache/internal/zns"
)

// payloadSeg is the payload segment size of the payload-test devices: their
// zones are odd multiples of 8 KiB, so device.NewSegments halves its
// segments down to 8 KiB.
const payloadSeg = 8 << 10

// payloadCase is how regions lie on those segments.
type payloadCase struct {
	name          string
	blocksPerZone int // 8 KiB blocks per zone
	region        int64
}

var payloadCases = []payloadCase{
	{"one segment per region", 3, 8 << 10},
	{"three segments per region", 9, 24 << 10},
	{"regions straddle segments", 3, 12 << 10},
	{"two regions per segment", 3, 4 << 10},
}

// newPayloadZNS returns an 8-zone payload device of blocksPerZone 8 KiB
// blocks per zone.
func newPayloadZNS(tb testing.TB, blocksPerZone int) *zns.Device {
	tb.Helper()
	d, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 2 * blocksPerZone,
			PagesPerBlock: 2, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: blocksPerZone,
		StoreData:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// regionBytes is the content of generation gen of region id: no other
// (id, gen) pair and no other sector shares it.
func regionBytes(id, gen int, n int64) []byte {
	h := uint64(id)<<32 | uint64(gen)
	h = (h ^ h>>31) * 0x9E3779B97F4A7C15
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(h>>(8*(i%8))) ^ byte(i/device.SectorSize)
	}
	return b
}

// heldKept is a buffer the device kept and a copy of the bytes it held then.
type heldKept struct{ b, want []byte }

// payloadRun drives one layer against a model of what it maps.
type payloadRun struct {
	t      *testing.T
	dev    *zns.Device // the device under any fault wrapper
	l      *Layer
	rng    *sim.Rand
	want   map[int][]byte // mapped region -> the bytes last written for it
	kept   []heldKept
	buf    []byte // one region, read back
	gen    int
	faulty bool // injected faults may leave bytes no mapping accounts for
	failed int  // writes that returned an error
}

// TestPayloadFollowsMapping is the payload store's oracle under the middle
// layer: seeded runs of region writes and evictions, with the GC they set
// off, on small payload devices whose regions cover one segment, several,
// part of two, or half of one; with the co-design drop filter off and on;
// on the bare device and under fault.WrapZoned injecting write, torn-write,
// read and reset errors. After every op:
//
//   - the layer maps exactly the regions the model does (a failed write
//     is asked where its region ended up), and each reads back the bytes
//     last written for it;
//   - every buffer KeepRegion handed over and the device kept still
//     holds the bytes it held then;
//   - zns_payload_bytes is the segments that overlap a mapped region plus
//     the written segments no one slot covers whole, which only a reset
//     frees. Under injected faults a torn write or a failed reclaim leaves
//     more until the zone's reset, so there it is only a lower bound.
func TestPayloadFollowsMapping(t *testing.T) {
	for _, pc := range payloadCases {
		for _, filter := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("%s/filter=%v/faults=%v", pc.name, filter, faults)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						runPayload(t, pc, filter, faults, seed)
					}
				})
			}
		}
	}
}

func runPayload(t *testing.T, pc payloadCase, filter, faults bool, seed uint64) {
	dev := newPayloadZNS(t, pc.blocksPerZone)
	r := &payloadRun{t: t, dev: dev, rng: sim.NewRand(seed), want: map[int][]byte{}, faulty: faults}
	var zd zns.Zoned = dev
	if faults {
		zd = fault.WrapZoned(dev, fault.NewInjector(fault.Config{
			Seed: seed, WriteErrorRate: 0.03, TornWriteRate: 0.03,
			ReadErrorRate: 0.03, ResetErrorRate: 0.05,
		}))
	}
	cfg := Config{
		RegionSize: pc.region, NumRegions: payloadRegions(dev, pc.region),
		OpenZones: 2, MinEmptyZones: 2, PlacementSeed: seed,
	}
	if filter {
		cfg.DropFilter = func(int) bool { return r.rng.Intn(3) == 0 }
		cfg.OnDrop = func(id int) { delete(r.want, id) }
	}
	l, err := New(zd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.l, r.buf = l, make([]byte, pc.region)
	const ops = 300
	kept := 0
	for op := 0; op < ops; op++ {
		id := r.rng.Intn(cfg.NumRegions)
		switch k := r.rng.Intn(10); {
		case k < 6:
			r.write(id, false)
		case k < 9:
			if _, err := l.EvictRegion(0, id); err != nil {
				t.Fatalf("seed %d op %d: EvictRegion(%d): %v", seed, op, id, err)
			}
			delete(r.want, id)
		default:
			if b := r.write(id, true); b != nil {
				hk := heldKept{b: b, want: bytes.Clone(b)}
				if len(r.kept) < 6 {
					r.kept = append(r.kept, hk)
				} else {
					r.kept[r.rng.Intn(len(r.kept))] = hk
				}
				kept++
			}
		}
		if err := r.check(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
	}
	_, dropped := dev.Payload()
	switch {
	case l.Migrated.Load() == 0 || l.Resets.Load() == 0:
		t.Fatalf("seed %d: GC migrated %d regions and reset %d zones", seed, l.Migrated.Load(), l.Resets.Load())
	case filter && l.Dropped.Load() == 0:
		t.Fatalf("seed %d: the drop filter dropped nothing", seed)
	case pc.region >= payloadSeg && dropped == 0:
		t.Fatalf("seed %d: no payload was dropped", seed)
	case (pc.region == payloadSeg) != (kept > 0):
		t.Fatalf("seed %d: the device kept %d buffers of %d-byte regions", seed, kept, pc.region)
	case faults && r.failed == 0:
		t.Fatalf("seed %d: no write failed", seed)
	}
}

// payloadRegions is the most regions of the given size a layer with two open
// zones allows on dev.
func payloadRegions(dev *zns.Device, region int64) int {
	return (dev.NumZones() - 3) * int(dev.ZoneSize()/region)
}

// write writes a new generation of region id, through KeepRegion when keep
// is set, and updates the model. It returns the buffer the device kept, or
// nil.
func (r *payloadRun) write(id int, keep bool) []byte {
	r.gen++
	data := regionBytes(id, r.gen, r.l.cfg.RegionSize)
	r.want[id] = data // before the call: the GC it runs may drop id again
	var err error
	kept := false
	if keep {
		r.want[id] = bytes.Clone(data)
		_, kept, err = r.l.KeepRegion(0, id, data)
	} else {
		_, err = r.l.WriteRegion(0, id, data)
	}
	if err != nil {
		if !r.faulty {
			r.t.Fatalf("WriteRegion(%d): %v", id, err)
		}
		r.failed++
		// The old copy is gone; the new one landed unless placing it failed.
		if _, ok := r.l.mapTable[id]; !ok {
			delete(r.want, id)
		}
	}
	if !kept {
		return nil
	}
	return data
}

// check compares the layer and the device with the model.
func (r *payloadRun) check() error {
	l := r.l
	if len(l.mapTable) != len(r.want) {
		return fmt.Errorf("layer maps %d regions, model %d", len(l.mapTable), len(r.want))
	}
	for id, want := range r.want {
		m, ok := l.mapTable[id]
		if !ok {
			return fmt.Errorf("region %d is not mapped", id)
		}
		got := r.buf[:len(want)]
		if _, err := r.dev.Read(0, got, l.slotOffset(m.zone, m.slot)); err != nil {
			return fmt.Errorf("region %d: read: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("region %d (zone %d slot %d) reads back other bytes", id, m.zone, m.slot)
		}
	}
	for i, hk := range r.kept {
		if !bytes.Equal(hk.b, hk.want) {
			return fmt.Errorf("kept buffer %d changed", i)
		}
	}
	// The segments the mapping needs, and those only a reset frees.
	var need, keep int64
	zs, rs := r.dev.ZoneSize(), l.cfg.RegionSize
	for z := range l.zones {
		zm := &l.zones[z]
		for seg := int64(0); seg < zs; seg += payloadSeg {
			first, last := seg/rs, (seg+payloadSeg-1)/rs // slots it overlaps
			mapped := false
			for s := first; s <= last; s++ {
				mapped = mapped || zm.bitmap&(1<<uint(s)) != 0
			}
			if mapped {
				need += payloadSeg
			} else if first != last && first < int64(zm.written) {
				keep += payloadSeg
			}
		}
	}
	held, _ := r.dev.Payload()
	if held < need || !r.faulty && held != need+keep {
		return fmt.Errorf("payload store holds %d bytes; mapped regions need %d, written shared segments %d",
			held, need, keep)
	}
	return nil
}

// TestEvictRewriteDoesNotAllocate: in steady state, evicting a region that
// is one whole payload segment and writing it again allocates nothing — the
// eviction pools the segment and the write takes it back, with the GC the
// writes set off resetting zones in between. (The race detector makes
// sync.Pool drop items at random, so the test is skipped under it.)
func TestEvictRewriteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	pc := payloadCases[0]
	dev := newPayloadZNS(t, pc.blocksPerZone)
	l, err := New(dev, Config{
		RegionSize: pc.region, NumRegions: payloadRegions(dev, pc.region), OpenZones: 2, MinEmptyZones: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := regionBytes(1, 1, pc.region)
	id := 0
	cycle := func() {
		if _, err := l.EvictRegion(0, id); err != nil {
			t.Fatal(err)
		}
		if _, err := l.WriteRegion(0, id, data); err != nil {
			t.Fatal(err)
		}
		id = (id + 7) % l.NumRegions()
	}
	for i := 0; i < 20*l.NumRegions(); i++ {
		cycle()
	}
	resets := l.Resets.Load()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("evicting and rewriting a one-segment region allocates %.2f objects, want 0", allocs)
	}
	if l.Resets.Load() == resets {
		t.Error("no zone was reset while allocations were counted")
	}
	if _, dropped := dev.Payload(); dropped == 0 {
		t.Error("no payload was dropped")
	}
}
