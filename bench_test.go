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

func BenchmarkFig4OPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig4Table1(benchFig4Params())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			label := fmt.Sprintf("%s_op%.0f", r.Scheme, r.OPRatio*100)
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
			b.ReportMetric(r.Result.WAFactor,
				fmt.Sprintf("%s_op%.0f_WAF", r.Scheme, r.OPRatio*100))
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

// ablationRun drives the bc mix on a Region-Cache rig and reports
// throughput, hit, and WAF.
func ablationRun(b *testing.B, label string, mutate func(*harness.RigConfig)) {
	b.Helper()
	hw := harness.DefaultHW(25)
	cfg := harness.RigConfig{
		Scheme:     harness.RegionCache,
		HW:         hw,
		CacheBytes: int64(hw.Zones) * hw.ZoneBytes() * 20 / 25,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rig, err := harness.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res := harness.RunBC(rig, 72<<10, 250_000, 150_000, 1)
	b.ReportMetric(res.OpsPerSec, label+"_ops/s")
	b.ReportMetric(res.HitRatio*100, label+"_hit%")
	b.ReportMetric(res.WAFactor, label+"_WAF")
}

func BenchmarkAblationRegionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// 256 KiB up to the full zone (the 64-slot bitmap bounds the
		// smallest usable region at zone/64).
		for _, rs := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
			rs := rs
			ablationRun(b, fmt.Sprintf("region%dKiB", rs>>10), func(c *harness.RigConfig) {
				c.RegionBytes = rs
			})
		}
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, "fifo", func(c *harness.RigConfig) {
			c.Policy, c.PolicySet = cache.FIFO, true
		})
		ablationRun(b, "lru", func(c *harness.RigConfig) {
			c.Policy, c.PolicySet = cache.LRU, true
		})
	}
}

func BenchmarkAblationCoDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Access-ordered eviction scatters deaths, giving GC real work for
		// the co-design to save.
		ablationRun(b, "migrate_all", func(c *harness.RigConfig) {
			c.Policy, c.PolicySet = cache.LRU, true
		})
		ablationRun(b, "codesign_drop", func(c *harness.RigConfig) {
			c.Policy, c.PolicySet = cache.LRU, true
			c.CoDesign = true
		})
	}
}

func BenchmarkAblationAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, "admit_all", nil)
		ablationRun(b, "admit_p50", func(c *harness.RigConfig) {
			c.Admission = cache.NewProbAdmit(0.5, 9)
		})
		ablationRun(b, "reject_first", func(c *harness.RigConfig) {
			c.Admission = cache.NewRejectFirstAdmit(1<<20, 1<<20)
		})
	}
}

func BenchmarkAblationGCThresholds(b *testing.B) {
	// Covered in depth by examples/gctuning; here the watermark sweep runs
	// through the public facade at one OP point.
	for i := 0; i < b.N; i++ {
		for _, op := range []float64{0.10, 0.20, 0.30} {
			op := op
			ablationRun(b, fmt.Sprintf("op%.0f", op*100), func(c *harness.RigConfig) {
				hw := harness.DefaultHW(25)
				c.CacheBytes = int64(float64(int64(hw.Zones)*hw.ZoneBytes()) * (1 - op))
				c.OPRatio = op
			})
		}
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
