package znscache

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// These benchmarks measure *simulated* performance: each iteration replays
// a whole experiment on the virtual clock and reports the simulation's
// outputs (throughput, hit ratio, write amplification) as custom metrics.
// Wall-clock ns/op indicates how fast the simulator itself runs. Run a
// single replay of everything with:
//
//	go test -bench=. -benchtime=1x -benchmem
//
// EXPERIMENTS.md records a reference run against the paper's numbers.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/sim"
	"znscache/internal/workload"
)

// benchFig2Params shrinks Figure 2 to benchmark-friendly size while keeping
// every ratio (25 zones, 20/25 cache, working set > cache).
func benchFig2Params() harness.Fig2Params {
	return harness.Fig2Params{
		Zones: 25, Keys: 72 << 10, WarmupOps: 300_000, MeasureOps: 200_000, Seed: 1,
	}
}

func BenchmarkFig2OverallComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig2(benchFig2Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.OpsPerSec, fmt.Sprintf("%s_ops/s", r.Scheme))
			b.ReportMetric(r.HitRatio*100, fmt.Sprintf("%s_hit%%", r.Scheme))
		}
	}
}

func BenchmarkFig3RegionFillTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig3(harness.Fig3Params{
			Zones: 25, ValueLen: 4096, RegionsAfterOnset: 20, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := "small"
			if r.RegionBytes > 1<<20 {
				name = "large"
			}
			b.ReportMetric(float64(r.MeanBefore.Microseconds()), name+"_fill_pre_us")
			b.ReportMetric(float64(r.MeanAfter.Microseconds()), name+"_fill_post_us")
		}
	}
}

func benchFig4Params() harness.Fig4Params {
	// The CLI defaults: warmup must exceed cache capacity so eviction and
	// zone GC reach steady state (see DefaultFig4).
	return harness.DefaultFig4()
}

// fig4Label names an OP sweep row's metrics.
func fig4Label(r harness.Fig4Row) string {
	label := fmt.Sprintf("%s_op%.0f", r.Scheme, r.OPRatio*100)
	if r.CoDesign {
		label += "_codesign"
	}
	return label
}

func BenchmarkFig4OPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig4Table1(benchFig4Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			label := fig4Label(r)
			b.ReportMetric(r.Result.OpsPerSec, label+"_ops/s")
			b.ReportMetric(r.Result.HitRatio*100, label+"_hit%")
		}
	}
}

func BenchmarkTable1WAFactors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig4Table1(benchFig4Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Result.WAFactor, fig4Label(r)+"_WAF")
		}
	}
}

func benchFig5Params() harness.Fig5Params {
	p := harness.DefaultFig5()
	p.Keys = 400_000
	p.Reads = 60_000
	return p
}

func BenchmarkFig5RocksDBSecondaryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig5(benchFig5Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			label := fmt.Sprintf("%s_er%.0f", r.Scheme, r.ER)
			b.ReportMetric(r.OpsPerSec, label+"_ops/s")
			b.ReportMetric(r.SecondaryHitRatio*100, label+"_hit%")
		}
	}
}

func BenchmarkTable2ZoneCacheSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunTable2(benchFig5Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.OpsPerSec, fmt.Sprintf("zones%d_ops/s", r.Zones))
			b.ReportMetric(r.HitRatio*100, fmt.Sprintf("zones%d_hit%%", r.Zones))
		}
	}
}

func BenchmarkSmallZoneHypothesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := harness.DefaultSmallZone()
		p.WarmupOps, p.MeasureOps = 300_000, 200_000
		rows, err := harness.RunSmallZone(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			label := fmt.Sprintf("zone%dMiB", r.ZoneMiB)
			if r.ZoneMiB == 0 {
				label = "region_ref"
			}
			b.ReportMetric(r.Result.OpsPerSec, label+"_ops/s")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// ablationVariant is one configuration an ablation compares.
type ablationVariant struct {
	label  string
	mutate func(*harness.RigConfig)
}

// ablationRuns drives the bc mix on a Region-Cache rig (25 zones, a cache
// of 20 of them) once per variant, GOMAXPROCS at a time, and returns the
// results by label.
func ablationRuns(tb testing.TB, vs ...ablationVariant) map[string]harness.SchemeResult {
	tb.Helper()
	res, errs := make([]harness.SchemeResult, len(vs)), make([]error, len(vs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, v := range vs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			hw := harness.DefaultHW(25)
			cfg := harness.RigConfig{
				Scheme:     harness.RegionCache,
				HW:         hw,
				CacheBytes: int64(hw.Zones) * hw.ZoneBytes() * 20 / 25,
			}
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			rig, err := harness.Build(cfg)
			if errs[i] = err; err == nil {
				res[i] = harness.RunBC(rig, 72<<10, 250_000, 150_000, 1)
			}
		}()
	}
	wg.Wait()
	out := make(map[string]harness.SchemeResult, len(vs))
	for i, v := range vs {
		if errs[i] != nil {
			tb.Fatalf("%s: %v", v.label, errs[i])
		}
		out[v.label] = res[i]
	}
	return out
}

// benchAblation runs the variants b.N times and reports each one's
// throughput, hit ratio and WAF.
func benchAblation(b *testing.B, vs ...ablationVariant) {
	for i := 0; i < b.N; i++ {
		for label, r := range ablationRuns(b, vs...) {
			b.ReportMetric(r.OpsPerSec, label+"_ops/s")
			b.ReportMetric(r.HitRatio*100, label+"_hit%")
			b.ReportMetric(r.WAFactor, label+"_WAF")
		}
	}
}

// regionSizeVariants run 256 KiB up to the full zone (the 64-slot bitmap
// bounds the smallest usable region at zone/64).
func regionSizeVariants() []ablationVariant {
	var vs []ablationVariant
	for _, rs := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		vs = append(vs, ablationVariant{fmt.Sprintf("region%dKiB", rs>>10), func(c *harness.RigConfig) {
			c.RegionBytes = rs
		}})
	}
	return vs
}

// policyVariants run allocation-ordered and access-ordered region eviction.
func policyVariants() []ablationVariant {
	return []ablationVariant{
		{"fifo", func(c *harness.RigConfig) { c.Policy, c.PolicySet = cache.FIFO, true }},
		{"lru", func(c *harness.RigConfig) { c.Policy, c.PolicySet = cache.LRU, true }},
	}
}

// admissionVariants run admit-all, 50 % random admission and
// reject-first-access.
func admissionVariants() []ablationVariant {
	return []ablationVariant{
		{"admit_all", nil},
		{"admit_p50", func(c *harness.RigConfig) {
			c.Admission, c.AdmissionSeed = cache.ProbAdmitFactory{P: 0.5}, 9
		}},
		{"reject_first", func(c *harness.RigConfig) {
			c.Admission = cache.RejectFirstFactory{Bits: 1 << 20, Window: 1 << 20}
		}},
	}
}

// opVariants repeat Table 1's OP sweep through the rig;
// TestGCVictimThreshold (internal/harness) sweeps the victim threshold.
func opVariants() []ablationVariant {
	var vs []ablationVariant
	for _, op := range []float64{0.10, 0.20, 0.30} {
		vs = append(vs, ablationVariant{fmt.Sprintf("op%.0f", op*100), func(c *harness.RigConfig) {
			hw := harness.DefaultHW(25)
			c.CacheBytes = int64(float64(int64(hw.Zones)*hw.ZoneBytes()) * (1 - op))
			c.OPRatio = op
		}})
	}
	return vs
}

func BenchmarkAblationRegionSize(b *testing.B) { benchAblation(b, regionSizeVariants()...) }

func BenchmarkAblationPolicy(b *testing.B) { benchAblation(b, policyVariants()...) }

func BenchmarkAblationCoDesign(b *testing.B) {
	// Access-ordered eviction scatters deaths, giving GC real work for the
	// co-design to save.
	benchAblation(b,
		ablationVariant{"migrate_all", func(c *harness.RigConfig) {
			c.Policy, c.PolicySet = cache.LRU, true
			c.MigrateAll = true
		}},
		ablationVariant{"codesign_drop", func(c *harness.RigConfig) { c.Policy, c.PolicySet = cache.LRU, true }},
	)
}

func BenchmarkAblationAdmission(b *testing.B) { benchAblation(b, admissionVariants()...) }

func BenchmarkAblationGCThresholds(b *testing.B) { benchAblation(b, opVariants()...) }

// TestAblationDirections pins the directions EXPERIMENTS.md's ablation notes
// state, on the ablation benchmarks' own runs (simulated clock, so exact):
//   - regions up to a quarter zone run within 5 % of each other's ops/s, and
//     the zone-sized region below 80 % of the slowest of them;
//   - allocation-ordered (FIFO) eviction kills zones whole, so GC migrates
//     nothing and WAF is exactly 1 at every OP; access-ordered (LRU)
//     eviction scatters deaths and WAF rises above 1 at the same hit ratio
//     (within 0.1 pt);
//   - 50 % random admission runs fastest with the lowest hit ratio,
//     reject-first-access between it and admit-all on both.
func TestAblationDirections(t *testing.T) {
	vs := append(append(append(regionSizeVariants(), policyVariants()...), admissionVariants()...), opVariants()...)
	r := ablationRuns(t, vs...)

	small := []float64{r["region256KiB"].OpsPerSec, r["region1024KiB"].OpsPerSec, r["region4096KiB"].OpsPerSec}
	lo, hi := slices.Min(small), slices.Max(small)
	if hi > 1.05*lo {
		t.Errorf("256 KiB–4 MiB regions run %.0f–%.0f ops/s, more than 5 %% apart", lo, hi)
	}
	if zone := r["region16384KiB"].OpsPerSec; zone >= 0.8*lo {
		t.Errorf("the zone-sized region runs %.0f ops/s, not below 80 %% of %.0f", zone, lo)
	}

	for _, label := range []string{"fifo", "op10", "op20", "op30"} {
		if w := r[label].WAFactor; w != 1 {
			t.Errorf("%s: FIFO eviction WAF %v, want exactly 1", label, w)
		}
	}
	fifo, lru := r["fifo"], r["lru"]
	if lru.WAFactor <= 1 || math.Abs(lru.HitRatio-fifo.HitRatio) > 0.001 {
		t.Errorf("LRU eviction: WAF %.3f, hit ratio %.4f against FIFO's %.4f", lru.WAFactor, lru.HitRatio, fifo.HitRatio)
	}

	all, p50, first := r["admit_all"], r["admit_p50"], r["reject_first"]
	if !(p50.OpsPerSec > first.OpsPerSec && first.OpsPerSec > all.OpsPerSec) ||
		!(all.HitRatio > first.HitRatio && first.HitRatio > p50.HitRatio) {
		t.Errorf("admission: ops/s all %.0f, reject-first %.0f, p50 %.0f; hit all %.4f, reject-first %.4f, p50 %.4f",
			all.OpsPerSec, first.OpsPerSec, p50.OpsPerSec, all.HitRatio, first.HitRatio, p50.HitRatio)
	}
}

// --- Simulator micro-benchmarks (real wall-clock costs) ---

// BenchmarkShardedScaling measures simulator throughput of the concurrent
// frontend as the shard count grows, at constant total capacity (96 zones
// split across shards) under parallel clients. On a multi-core machine
// ops/s should scale near-linearly 1→4 shards because shards share no
// locks, clocks, or stores; on a single core all points collapse to the
// serial cost plus sharding overhead. EXPERIMENTS.md records a run.
func BenchmarkShardedScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := OpenSharded(ShardedConfig{
				Config: Config{Zones: 96},
				Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			keys := make([]string, 8192)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%08d", i)
				if err := c.SetSized(keys[i], 4096); err != nil {
					b.Fatal(err)
				}
			}
			var goroutineID atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := sim.NewRand(goroutineID.Add(1))
				i := 0
				for pb.Next() {
					k := keys[rng.Intn(len(keys))]
					if i%4 == 0 {
						c.SetSized(k, 4096) //nolint:errcheck
					} else {
						c.Get(k) //nolint:errcheck
					}
					i++
				}
			})
		})
	}
}

func BenchmarkEngineSetGet(b *testing.B) {
	c, err := Open(Config{Zones: 12})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if i%3 == 0 {
			c.SetSized(k, 4096) //nolint:errcheck
		} else {
			c.Get(k) //nolint:errcheck
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := workload.NewZipf(1<<20, 0.99, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkBCGeneratorNext(b *testing.B) {
	gen := workload.NewBC(workload.BCConfig{Keys: 1 << 20, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}
