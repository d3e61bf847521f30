package harness

import (
	"fmt"
	"time"

	"znscache/internal/cache"
	"znscache/internal/workload"
)

// SchemeResult is one scheme's micro-benchmark outcome.
type SchemeResult struct {
	Scheme     Scheme        `json:"scheme"`
	OpsPerSec  float64       `json:"ops_per_sec"`
	HitRatio   float64       `json:"hit_ratio"`
	WAFactor   float64       `json:"wa_factor"`
	SetP50     time.Duration `json:"set_p50_ns"`
	SetP99     time.Duration `json:"set_p99_ns"`
	GetP50     time.Duration `json:"get_p50_ns"`
	GetP99     time.Duration `json:"get_p99_ns"`
	CacheBytes int64         `json:"cache_bytes"`
	SimTime    time.Duration `json:"sim_time_ns"`
	Ops        uint64        `json:"ops"`
}

// RunBC drives the CacheBench bc mix against a rig: a warmup phase sized to
// cycle the cache, then a measured window. Returns the measured result.
func RunBC(rig *Rig, keys int64, warmupOps, measureOps int, seed uint64) SchemeResult {
	return runBCMeasured(rig, keys, warmupOps, measureOps, seed).SchemeResult
}

// ReadThrough applies one CacheBench op to eng: a get that misses inserts
// the object (CacheBench's read-through fill), a set inserts, a delete
// removes. A get that carries no size (a trace record without one) has
// nothing to fill; bc gets always carry one.
func ReadThrough(eng *cache.Cache, op workload.Op) {
	switch op.Kind {
	case workload.OpGet:
		if _, hit, _ := eng.Get(op.Key); !hit && op.ValLen > 0 {
			eng.Set(op.Key, nil, op.ValLen) //nolint:errcheck
		}
	case workload.OpSet:
		eng.Set(op.Key, nil, op.ValLen) //nolint:errcheck
	case workload.OpDelete:
		eng.Delete(op.Key)
	}
}

// measuredBC is RunBC's result plus the measured-window byte and admission
// deltas the write-budget experiments need.
type measuredBC struct {
	SchemeResult
	// HostWriteBytes are item bytes the engine accepted in the window.
	HostWriteBytes uint64
	// DeviceWriteBytes are bytes the flash medium absorbed in the window
	// (Rig.DeviceWriteBytes delta: flushes, padding, GC).
	DeviceWriteBytes uint64
	// AdmitRejects counts inserts the admission policy refused in the window.
	AdmitRejects uint64
}

// runBCMeasured is RunBC with measured-window deltas of the write-path
// counters. Shared by RunBC and the admission sweep.
func runBCMeasured(rig *Rig, keys int64, warmupOps, measureOps int, seed uint64) measuredBC {
	gen := workload.NewBC(workload.BCConfig{Keys: keys, Seed: seed})
	eng := rig.Engine

	for i := 0; i < warmupOps; i++ {
		ReadThrough(eng, gen.Next())
	}
	// Reset measurement state at the window boundary.
	startStats := eng.Stats()
	startTime := rig.Clock.Now()
	startDevice := rig.DeviceWriteBytes()
	eng.GetLatencyHistogram().Reset()
	eng.SetLatencyHistogram().Reset()

	for i := 0; i < measureOps; i++ {
		ReadThrough(eng, gen.Next())
	}
	eng.Drain()
	endStats := eng.Stats()
	elapsed := rig.Clock.Now() - startTime

	hits := endStats.Hits - startStats.Hits
	misses := endStats.Misses - startStats.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	ops := float64(measureOps)
	opsPerSec := 0.0
	if elapsed > 0 {
		opsPerSec = ops / elapsed.Seconds()
	}
	return measuredBC{
		SchemeResult: SchemeResult{
			Scheme:    rig.Scheme,
			OpsPerSec: opsPerSec,
			HitRatio:  hitRatio,
			WAFactor:  rig.WAFactor(),
			SetP50:    eng.SetLatencyHistogram().Percentile(0.5),
			SetP99:    eng.SetLatencyHistogram().Percentile(0.99),
			GetP50:    eng.GetLatencyHistogram().Percentile(0.5),
			GetP99:    eng.GetLatencyHistogram().Percentile(0.99),
			SimTime:   elapsed,
			Ops:       uint64(measureOps),
		},
		HostWriteBytes:   endStats.HostWriteBytes - startStats.HostWriteBytes,
		DeviceWriteBytes: rig.DeviceWriteBytes() - startDevice,
		AdmitRejects:     endStats.AdmitRejects - startStats.AdmitRejects,
	}
}

// Fig2Params sizes the overall comparison (§4.1 "Overall Comparison"):
// 25 zones; Zone-Cache uses all 25 as cache (no OP), the other three use
// 20/25 of the capacity with 5/25 as OP — the paper's 25 GiB vs 20 GiB.
type Fig2Params struct {
	Zones      int
	Keys       int64
	WarmupOps  int
	MeasureOps int
	Seed       uint64
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultFig2 returns the scaled default parameters.
func DefaultFig2() Fig2Params {
	return Fig2Params{
		Zones: 25,
		// Working set ~72k keys × ~3.3 KiB ≈ 240 MiB: between the 320 MiB
		// (Block/File/Region) and 400 MiB (Zone) cache reach, so capacity
		// differences show in the hit ratio while hit ratios stay in the
		// paper's ~90% regime.
		Keys:       72 << 10,
		WarmupOps:  500_000,
		MeasureOps: 400_000,
		Seed:       1,
	}
}

// RunFig2 reruns Figure 2 for all four schemes. The schemes are independent
// points (own device stack, own clock, same seed), so they run across a
// worker pool; output stays in presentation order.
func RunFig2(p Fig2Params) ([]SchemeResult, error) {
	hw := DefaultHW(p.Zones)
	out := make([]SchemeResult, len(AllSchemes))
	err := forEachPoint(len(AllSchemes), func(i int) error {
		s := AllSchemes[i]
		rig, err := p.Env.build(fig2RigConfig(s, hw))
		if err != nil {
			return fmt.Errorf("fig2 %v: %w", s, err)
		}
		out[i] = RunBC(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig2RigConfig is the Figure 2 rig, which the admission and contracts
// sweeps rerun: 20/25 of the device as cache (20 GiB of 25 at paper scale),
// 20% OP, and Zone-Cache on the whole device at 0% OP.
func fig2RigConfig(s Scheme, hw HWProfile) RigConfig {
	cfg := RigConfig{
		Scheme:     s,
		HW:         hw,
		CacheBytes: int64(hw.actualZones()) * hw.ZoneBytes() * 20 / 25,
		OPRatio:    0.20,
		// Honest F2FS capacity accounting: the paper needed 38 zones plus
		// a 6 GiB block device for a 20 GiB cache (§4.1), so on the same
		// 25-zone budget the file cache is much smaller.
		FSMetaOverhead:    0.30,
		FSMetaOverheadSet: true,
	}
	if s == ZoneCache {
		cfg.ZoneCount = hw.actualZones()
	}
	return cfg
}

// Fig3Result is the fill-time log of one region-size configuration.
type Fig3Result struct {
	Label       string `json:"label"`
	RegionBytes int64  `json:"region_bytes"`
	// EvictionOnsetSeq is the first sequence that required an eviction.
	EvictionOnsetSeq uint64 `json:"eviction_onset_seq"`
	// MeanBefore/MeanAfter average the fill time before and after onset.
	MeanBefore time.Duration      `json:"mean_before_ns"`
	MeanAfter  time.Duration      `json:"mean_after_ns"`
	Records    []cache.FillRecord `json:"records"`
}

// Fig3Params sizes the insertion-time experiment (§3.2, Figure 3).
type Fig3Params struct {
	Zones    int
	ValueLen int
	// RegionsToFill bounds the run: fill until this many regions flushed
	// after eviction onset.
	RegionsAfterOnset int
	Seed              uint64
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultFig3 returns scaled defaults: zone-sized (16 MiB) regions vs
// small (256 KiB) regions, the paper's 1024 MiB vs 16 MiB at 1/64 scale.
func DefaultFig3() Fig3Params {
	return Fig3Params{Zones: 25, ValueLen: 4096, RegionsAfterOnset: 30, Seed: 2}
}

// RunFig3 reruns Figure 3: set-only fill, recording per-region buffer fill
// time for a large-region (Zone-Cache) and small-region (Region-Cache)
// configuration.
func RunFig3(p Fig3Params) ([]Fig3Result, error) {
	type cfg struct {
		label  string
		scheme Scheme
		region int64
	}
	hw := DefaultHW(p.Zones)
	configs := []cfg{
		{"large (zone-sized)", ZoneCache, hw.ZoneBytes()},
		{"small (16 MiB-equivalent)", RegionCache, 256 << 10},
	}
	out := make([]Fig3Result, len(configs))
	err := forEachPoint(len(configs), func(ci int) error {
		c := configs[ci]
		rc := RigConfig{
			Scheme:      c.scheme,
			HW:          hw,
			CacheBytes:  int64(hw.actualZones()) * hw.ZoneBytes() * 20 / 25,
			RegionBytes: c.region,
		}
		if c.scheme == ZoneCache {
			rc.ZoneCount = hw.actualZones()
		}
		rig, err := p.Env.build(rc)
		if err != nil {
			return fmt.Errorf("fig3 %s: %w", c.label, err)
		}
		// Set-only fill with fixed-size values (the paper fills the region
		// buffer with inserts and measures fill time per region sequence).
		// The engine tracks eviction onset itself, so the stop condition is
		// O(1) per insert instead of a fill-log rescan.
		gen := workload.NewZipf(1<<40, 0.99, p.Seed) // effectively unique keys
		i := 0
		for {
			key := fmt.Sprintf("fill-%016d-%08d", gen.Next(), i)
			i++
			if err := rig.Engine.Set(key, nil, p.ValueLen); err != nil {
				return fmt.Errorf("fig3 %s set: %w", c.label, err)
			}
			if onset, ok := rig.Engine.EvictionOnset(); ok &&
				rig.Engine.FillCount()-onset >= uint64(p.RegionsAfterOnset) {
				break
			}
			if i > 20_000_000 {
				return fmt.Errorf("fig3 %s: eviction never started", c.label)
			}
		}
		log := rig.Engine.FillLog()
		res := Fig3Result{Label: c.label, RegionBytes: c.region, Records: log}
		var beforeSum, afterSum time.Duration
		var beforeN, afterN int
		for _, r := range log {
			if !r.Evicted {
				beforeSum += r.Duration
				beforeN++
			} else {
				if res.EvictionOnsetSeq == 0 {
					res.EvictionOnsetSeq = r.Seq
				}
				afterSum += r.Duration
				afterN++
			}
		}
		if beforeN > 0 {
			res.MeanBefore = beforeSum / time.Duration(beforeN)
		}
		if afterN > 0 {
			res.MeanAfter = afterSum / time.Duration(afterN)
		}
		out[ci] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4Row is one (scheme, OP) cell of Figure 4 and Table 1 (the WA factor
// lives inside Result). CoDesign marks the Region-Cache rows run with the
// §3.4 co-design GC; the paper's rows migrate every live region.
type Fig4Row struct {
	Scheme   Scheme       `json:"scheme"`
	OPRatio  float64      `json:"op_ratio"`
	CoDesign bool         `json:"codesign,omitempty"`
	Result   SchemeResult `json:"result"`
}

// Fig4Params sizes the OP sweep (§4.1, 220 zones at paper scale).
type Fig4Params struct {
	Zones      int
	OPRatios   []float64
	Keys       int64
	WarmupOps  int
	MeasureOps int
	Seed       uint64
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultFig4 returns scaled defaults. The warmup must write more than the
// cache capacity (~960 MiB at 60 zones) so eviction and zone GC reach
// steady state before the measured window; at ~1 KiB of cache writes per
// op, 1.2M warmup ops turn the cache over.
func DefaultFig4() Fig4Params {
	return Fig4Params{
		Zones:      60,
		OPRatios:   []float64{0.10, 0.15, 0.20},
		Keys:       256 << 10,
		WarmupOps:  1_200_000,
		MeasureOps: 500_000,
		Seed:       3,
	}
}

// RunFig4Table1 reruns Figure 4 (throughput & hit ratio under OP ratios)
// and Table 1 (WA factors); Zone-Cache appears once with 0% OP.
//
// The paper's rows run Region-Cache with migrate-all GC: the OP
// sensitivity they show is the cost of migration. Each OP point also gets
// a co-design Region-Cache row, right after its paper row, whose GC drops
// cold regions instead (RigConfig.MigrateAll off).
//
// This experiment runs the engine with access-ordered (LRU) region
// eviction — the policy the paper states for its evaluation (§4.1). Under
// item-level zipf traffic, region LRU scatters region deaths across zones,
// and the scatter is what makes the middle layer's (and filesystem's) GC
// migrations — Table 1's WA factors — sensitive to the OP ratio. The
// write-ordered FIFO default used elsewhere clusters deaths so well that
// WA pins at 1.0 regardless of OP (see BenchmarkAblationPolicy).
func RunFig4Table1(p Fig4Params) ([]Fig4Row, error) {
	hw := DefaultHW(p.Zones)
	deviceBytes := int64(hw.actualZones()) * hw.ZoneBytes()

	// Enumerate the sweep's (scheme, OP) points first, then fan them across
	// the worker pool; each point builds its own rig and clock, so the rows
	// replay bit-identically to the serial sweep, in the same order.
	type point struct {
		scheme   Scheme
		op       float64
		codesign bool
	}
	points := []point{{ZoneCache, 0, false}} // whole device, no OP
	for _, op := range p.OPRatios {
		points = append(points, point{FileCache, op, false})
	}
	for _, op := range p.OPRatios {
		points = append(points, point{RegionCache, op, false}, point{RegionCache, op, true})
	}

	out := make([]Fig4Row, len(points))
	err := forEachPoint(len(points), func(i int) error {
		pt := points[i]
		cfg := RigConfig{
			Scheme:     pt.scheme,
			HW:         hw,
			Policy:     cache.LRU,
			PolicySet:  true,
			MigrateAll: !pt.codesign,
		}
		if pt.scheme == ZoneCache {
			cfg.ZoneCount = hw.actualZones()
		} else {
			cfg.CacheBytes = int64(float64(deviceBytes)*(1-pt.op)/float64(256<<10)) * (256 << 10)
			cfg.OPRatio = pt.op
			// Figure 4 states the OP directly; fold all FS overhead
			// into it so File and Region see the same cache size.
			cfg.FSMetaOverheadSet = true
		}
		rig, err := p.Env.build(cfg)
		if err != nil {
			return fmt.Errorf("fig4 %v op=%v codesign=%v: %w", pt.scheme, pt.op, pt.codesign, err)
		}
		out[i] = Fig4Row{
			Scheme: pt.scheme, OPRatio: pt.op, CoDesign: pt.codesign,
			Result: RunBC(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
