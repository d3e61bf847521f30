package harness

import (
	"bytes"
	"strings"
	"testing"

	"znscache/internal/workload"
)

// tinyFig2 shrinks Figure 2 to smoke-test scale.
func tinyFig2() Fig2Params {
	// The paper's 25-zone Figure 2 geometry with a reduced op count.
	// Working set (~72k keys × ~3.3 KiB ≈ 240 MiB) sits between the two
	// cache sizes' reach so the Zone-Cache capacity edge shows in the hit
	// ratio while hit ratios stay in the paper's ~90% regime.
	return Fig2Params{Zones: 25, Keys: 72 << 10, WarmupOps: 400_000, MeasureOps: 200_000, Seed: 1}
}

func TestBuildAllSchemes(t *testing.T) {
	hw := DefaultHW(12)
	for _, s := range AllSchemes {
		cfg := RigConfig{Scheme: s, HW: hw, CacheBytes: int64(9) * hw.ZoneBytes()}
		if s == ZoneCache {
			cfg.ZoneCount = 12
		}
		rig, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%v): %v", s, err)
		}
		if rig.Engine == nil || rig.Clock == nil {
			t.Fatalf("Build(%v): incomplete rig", s)
		}
		// Exercise the engine minimally.
		if err := rig.Engine.Set("k", nil, 100); err != nil {
			t.Fatalf("%v Set: %v", s, err)
		}
		if _, ok, err := rig.Engine.Get("k"); !ok || err != nil {
			t.Fatalf("%v Get: (%v, %v)", s, ok, err)
		}
	}
}

func TestSchemeStringAndWAF(t *testing.T) {
	names := map[Scheme]string{
		BlockCache: "Block-Cache", FileCache: "File-Cache",
		ZoneCache: "Zone-Cache", RegionCache: "Region-Cache",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("String(%d) = %s", s, s.String())
		}
	}
}

func TestRunBCProducesSaneNumbers(t *testing.T) {
	hw := DefaultHW(12)
	rig, err := Build(RigConfig{Scheme: RegionCache, HW: hw, CacheBytes: 9 * hw.ZoneBytes()})
	if err != nil {
		t.Fatal(err)
	}
	res := RunBC(rig, 8<<10, 30_000, 30_000, 1)
	if res.OpsPerSec <= 0 {
		t.Fatalf("ops/sec = %v", res.OpsPerSec)
	}
	if res.HitRatio <= 0 || res.HitRatio > 1 {
		t.Fatalf("hit ratio = %v", res.HitRatio)
	}
	if res.WAFactor < 1 {
		t.Fatalf("WAF = %v < 1", res.WAFactor)
	}
	if res.SimTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestFig2ShapeTiny(t *testing.T) {
	rows, err := RunFig2(tinyFig2())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byScheme := map[Scheme]SchemeResult{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	// Core shape assertions from the paper (robust even at tiny scale):
	// Zone-Cache has the best hit ratio (largest capacity, no OP).
	zone := byScheme[ZoneCache]
	for _, s := range []Scheme{BlockCache, FileCache, RegionCache} {
		if zone.HitRatio <= byScheme[s].HitRatio {
			t.Errorf("Zone-Cache hit ratio %.4f not above %v's %.4f",
				zone.HitRatio, s, byScheme[s].HitRatio)
		}
	}
	// Throughput ordering (Figure 2a): Region ≥ Block > Zone > File.
	order := []Scheme{RegionCache, BlockCache, ZoneCache, FileCache}
	for i := 1; i < len(order); i++ {
		hi, lo := byScheme[order[i-1]], byScheme[order[i]]
		if hi.OpsPerSec <= lo.OpsPerSec {
			t.Errorf("%v ops/s %.0f not above %v's %.0f",
				order[i-1], hi.OpsPerSec, order[i], lo.OpsPerSec)
		}
	}
	// File-Cache's hit ratio is the lowest (smallest effective cache).
	for _, s := range []Scheme{BlockCache, ZoneCache, RegionCache} {
		if byScheme[FileCache].HitRatio >= byScheme[s].HitRatio {
			t.Errorf("File-Cache hit %.4f not below %v's %.4f",
				byScheme[FileCache].HitRatio, s, byScheme[s].HitRatio)
		}
	}
	// Zone-Cache is WA-free; File/Region amplify.
	if zone.WAFactor != 1.0 {
		t.Errorf("Zone-Cache WAF = %v", zone.WAFactor)
	}
}

func TestFig3LargeRegionsSpike(t *testing.T) {
	rows, err := RunFig3(Fig3Params{Zones: 10, ValueLen: 4096, RegionsAfterOnset: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	large, small := rows[0], rows[1]
	if large.RegionBytes <= small.RegionBytes {
		t.Fatal("row order: large first expected")
	}
	// Large-region fills are far slower than small-region fills, and both
	// rise after eviction onset (Figure 3's two panels).
	if large.MeanAfter <= small.MeanAfter {
		t.Errorf("large-region post-onset fill %v not above small %v",
			large.MeanAfter, small.MeanAfter)
	}
	if large.MeanAfter <= large.MeanBefore {
		t.Errorf("large-region fill did not rise after onset: %v -> %v",
			large.MeanBefore, large.MeanAfter)
	}
}

func TestCoDesignReducesWA(t *testing.T) {
	run := func(migrateAll bool) (float64, uint64) {
		hw := DefaultHW(8)
		rig, err := Build(RigConfig{
			Scheme: RegionCache, HW: hw,
			CacheBytes: 5 * hw.ZoneBytes(),
			MigrateAll: migrateAll,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Enough set volume (~3x the 80 MiB cache) to cycle regions and
		// put the middle-layer GC under pressure.
		res := RunBC(rig, 8<<10, 120_000, 120_000, 5)
		if rig.Middle.GCRuns.Load() == 0 {
			t.Fatal("test vacuous: middle-layer GC never ran")
		}
		return res.WAFactor, rig.Middle.Dropped.Load()
	}
	waOff, _ := run(true)
	waOn, dropped := run(false)
	if dropped == 0 {
		t.Fatal("co-design never dropped a region")
	}
	if waOn >= waOff {
		t.Errorf("co-design WAF %v not below baseline %v", waOn, waOff)
	}
}

func TestFig5TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	p := Fig5Params{
		Keys: 250_000, Reads: 20_000, ERValues: []float64{25},
		FlashCacheZones: 2, DeviceZones: 8, KeyLen: 16, ValLen: 64,
		DRAMCacheBytes: 128 << 10, Seed: 4,
	}
	rows, err := RunFig5(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byScheme := map[Scheme]Fig5Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
		if r.OpsPerSec <= 0 {
			t.Fatalf("%v ops/sec = %v", r.Scheme, r.OpsPerSec)
		}
	}
	// Zone-Cache's few huge regions must hurt its hit ratio (§4.2).
	if byScheme[ZoneCache].SecondaryHitRatio >= byScheme[RegionCache].SecondaryHitRatio {
		t.Errorf("Zone-Cache hit %.3f not below Region-Cache %.3f",
			byScheme[ZoneCache].SecondaryHitRatio, byScheme[RegionCache].SecondaryHitRatio)
	}
}

// TestTable2Monotone: where the smallest cache evicts, the hit ratio never
// falls as the cache grows and rises from first row to last (Table 2).
func TestTable2Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	p := Fig5Params{
		Keys: 100_000, Reads: 120_000, ERValues: []float64{25},
		DeviceZones: 16, KeyLen: 16, ValLen: 64,
		DRAMCacheBytes: 128 << 10, Seed: 4,
	}
	rows, err := RunTable2(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].HitRatio < rows[i-1].HitRatio {
			t.Errorf("hit ratio fell from %.4f (z=%d) to %.4f (z=%d)", rows[i-1].HitRatio, rows[i-1].Zones, rows[i].HitRatio, rows[i].Zones)
		}
	}
	if first, last := rows[0], rows[len(rows)-1]; last.HitRatio <= first.HitRatio {
		t.Errorf("hit ratio %.4f at z=%d is not above %.4f at z=%d: the sweep is flat", last.HitRatio, last.Zones, first.HitRatio, first.Zones)
	}
}

func TestSecondaryAdapterRoundTrip(t *testing.T) {
	hw := DefaultHW(8)
	rig, err := Build(RigConfig{Scheme: RegionCache, HW: hw, CacheBytes: 5 * hw.ZoneBytes()})
	if err != nil {
		t.Fatal(err)
	}
	sec := &EngineSecondary{Engine: rig.Engine}
	if sec.Lookup("blk", 4096) {
		t.Fatal("hit before insert")
	}
	sec.Insert("blk", 4096)
	if !sec.Lookup("blk", 4096) {
		t.Fatal("miss after insert")
	}
}

func TestReportsRender(t *testing.T) {
	var buf bytes.Buffer
	PrintFig2(&buf, []SchemeResult{{Scheme: ZoneCache, OpsPerSec: 1, HitRatio: 0.95, WAFactor: 1}})
	PrintFig4Table1(&buf, []Fig4Row{{Scheme: RegionCache, OPRatio: 0.1}})
	PrintFig5(&buf, []Fig5Row{{Scheme: BlockCache, ER: 15}})
	PrintTable2(&buf, []Table2Row{{Zones: 4, HitRatio: 0.8}})
	PrintFig3(&buf, []Fig3Result{{Label: "x", RegionBytes: 1}})
	PrintSmallZone(&buf, []SmallZoneRow{{Label: "Zone-Cache 4 MiB zones", ZoneMiB: 4}})
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Table 1", "Figure 5", "Table 2", "Small-zone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestWorkloadIntegration(t *testing.T) {
	// The bc generator and a rig together: hit ratio settles above zero
	// for a zipfian mix whose working set exceeds the cache.
	hw := DefaultHW(8)
	rig, err := Build(RigConfig{Scheme: BlockCache, HW: hw, CacheBytes: 6 * hw.ZoneBytes()})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewBC(workload.BCConfig{Keys: 4 << 10, Seed: 9})
	for i := 0; i < 50_000; i++ {
		op := gen.Next()
		switch op.Kind {
		case workload.OpGet:
			rig.Engine.Get(op.Key)
		case workload.OpSet:
			rig.Engine.Set(op.Key, nil, op.ValLen)
		case workload.OpDelete:
			rig.Engine.Delete(op.Key)
		}
	}
	st := rig.Engine.Stats()
	if st.HitRatio < 0.3 {
		t.Fatalf("hit ratio %.3f unreasonably low", st.HitRatio)
	}
}

func TestSmallZoneHypothesisShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	p := SmallZoneParams{
		DeviceMiB:    400,
		ZoneSizesMiB: []int{16, 4},
		Keys:         72 << 10,
		WarmupOps:    300_000,
		MeasureOps:   200_000,
		Seed:         6,
	}
	rows, err := RunSmallZone(p)
	if err != nil {
		t.Fatal(err)
	}
	byZone := map[int]SchemeResult{}
	var ref SchemeResult
	for _, r := range rows {
		if r.ZoneMiB == 0 {
			ref = r.Result
		} else {
			byZone[r.ZoneMiB] = r.Result
		}
	}
	// §3.2/§4.2: smaller zones lift Zone-Cache's throughput substantially...
	if byZone[4].OpsPerSec <= byZone[16].OpsPerSec*11/10 {
		t.Errorf("4 MiB zones (%.0f ops/s) not well above 16 MiB (%.0f)",
			byZone[4].OpsPerSec, byZone[16].OpsPerSec)
	}
	// ...while the hit-ratio and capacity edge survives at every size.
	for zm, r := range byZone {
		if r.HitRatio <= ref.HitRatio {
			t.Errorf("Zone-Cache %d MiB hit %.4f not above Region reference %.4f",
				zm, r.HitRatio, ref.HitRatio)
		}
	}
}
