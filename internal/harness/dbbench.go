package harness

import (
	"fmt"
	"strconv"
	"time"

	"znscache/internal/cache"
	"znscache/internal/hdd"
	"znscache/internal/lsm"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/workload"
)

// EngineSecondary adapts the cache engine to the LSM's SecondaryCache
// interface: CacheLib serving as RocksDB's secondary cache (§4.2). Both
// sides share one virtual clock, so cache latency lands inside the DB's
// Get latency exactly as it does on real hardware.
//
// Inserts are best-effort, as in the real RocksDB/CacheLib integration:
// when the cache's flush pipeline is backed up — a zone-sized region still
// being written, or a device GC stall holding the flusher — the insert is
// dropped rather than blocking the DB. Dropped inserts depress the hit
// ratio, which is how device-level stalls surface in Figure 5's throughput.
type EngineSecondary struct {
	Engine *cache.Cache
	// Dropped counts best-effort inserts lost to flush backlog.
	Dropped uint64
}

// Lookup implements lsm.SecondaryCache.
func (s *EngineSecondary) Lookup(key string, _ int) bool {
	_, ok, err := s.Engine.Get(key)
	return err == nil && ok
}

// Insert implements lsm.SecondaryCache.
func (s *EngineSecondary) Insert(key string, size int) {
	if s.Engine.WouldBlock(len(key), size) {
		s.Dropped++
		return
	}
	s.Engine.Set(key, nil, size) //nolint:errcheck
}

var _ lsm.SecondaryCache = (*EngineSecondary)(nil)

// Fig5Params sizes the RocksDB end-to-end run. Paper: 100 M keys filled,
// 1 M read, 5 GiB flash cache, 32 MiB DRAM, HDD backend. Scaled ~64x.
type Fig5Params struct {
	Keys     int64 // fillrandom keys
	Reads    int   // readrandom ops
	ERValues []float64
	// FlashCacheZones is the Zone-Cache zone budget; other schemes get the
	// same byte capacity (paper: 5 GiB ≈ 4.75 zones).
	FlashCacheZones int
	DeviceZones     int
	KeyLen, ValLen  int
	DRAMCacheBytes  int64
	Seed            uint64
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultFig5 returns scaled defaults: 8 MiB zones for the flash cache
// device so the 40 MiB cache spans ~5 zones, the paper's ratio.
func DefaultFig5() Fig5Params {
	return Fig5Params{
		Keys:            1_000_000,
		Reads:           120_000,
		ERValues:        []float64{15, 25},
		FlashCacheZones: 5,
		DeviceZones:     16, // ample device: "reserve enough OP space" (§4.2)
		KeyLen:          16,
		ValLen:          64,
		DRAMCacheBytes:  512 << 10,
		Seed:            4,
	}
}

// fig5HW is the flash profile for the secondary-cache device: 8 MiB zones.
func fig5HW(zones int) HWProfile {
	return HWProfile{
		Zones:         zones,
		BlocksPerZone: 8,   // 8 MiB zones
		PagesPerBlock: 256, // 1 MiB blocks
		Channels:      8,
		DiesPerChan:   2,
	}
}

// Fig5Row is one (scheme, ER) cell of Figure 5.
type Fig5Row struct {
	Scheme    Scheme  `json:"scheme"`
	ER        float64 `json:"er"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// SecondaryHitRatio is Figure 5(b)'s metric.
	SecondaryHitRatio float64       `json:"secondary_hit_ratio"`
	P50               time.Duration `json:"p50_ns"`
	P99               time.Duration `json:"p99_ns"`
	SimTime           time.Duration `json:"sim_time_ns"`
}

// BuildFig5Rig builds a scheme with the Figure 5 flash-cache sizing. A nil
// clock allocates a fresh one.
func BuildFig5Rig(s Scheme, p Fig5Params, clock *sim.Clock) (*Rig, error) {
	if clock == nil {
		clock = sim.NewClock()
	}
	hw := fig5HW(p.DeviceZones)
	cacheBytes := int64(p.FlashCacheZones) * hw.ZoneBytes()
	cfg := RigConfig{
		Scheme:      s,
		HW:          hw,
		CacheBytes:  cacheBytes,
		RegionBytes: 128 << 10, // 16 MiB at paper scale (1:64 of the zone)
		OPRatio:     0.20,      // "reserve enough OP space" (§4.2)
		Clock:       clock,
	}
	switch s {
	case ZoneCache:
		cfg.ZoneCount = p.FlashCacheZones
	case BlockCache:
		// The regular SSD runs at steady-state utilization: an aged block
		// drive collects continuously, which is where its tail latency
		// comes from (§2.3). A fresh, mostly-empty FTL never GCs and would
		// behave like Region-Cache.
		zones := int(float64(p.FlashCacheZones)/(1-cfg.OPRatio)) + 2
		if zones < p.FlashCacheZones+1 {
			zones = p.FlashCacheZones + 1
		}
		cfg.HW = fig5HW(zones)
	}
	return p.Env.build(cfg)
}

// runDBBench executes fillrandom + readrandom against a DB whose secondary
// cache is the given scheme. Returns the read-phase metrics.
func runDBBench(s Scheme, er float64, p Fig5Params, zoneCount int) (Fig5Row, error) {
	clock := sim.NewClock()
	if zoneCount == 0 {
		zoneCount = p.FlashCacheZones
	}
	p2 := p
	p2.FlashCacheZones = zoneCount
	rig, err := BuildFig5Rig(s, p2, clock)
	if err != nil {
		return Fig5Row{}, err
	}
	disk := hdd.New(hdd.Config{Capacity: 64 << 30})
	db, err := lsm.Open(lsm.Config{
		Disk:            disk,
		Secondary:       &EngineSecondary{Engine: rig.Engine},
		BlockCacheBytes: p.DRAMCacheBytes,
		Clock:           clock,
	})
	if err != nil {
		return Fig5Row{}, fmt.Errorf("dbbench %v: %w", s, err)
	}
	if reg := globalRegistry.Load(); reg != nil {
		db.MetricsInto(reg, obs.L(
			"rig", strconv.FormatUint(rigSeq.Add(1), 10),
			"scheme", s.String()))
	}

	// Phase 1: fillrandom.
	fill := workload.NewFillRandom(p.Keys, p.ValLen, p.Seed)
	for {
		op, ok := fill.Next()
		if !ok {
			break
		}
		if err := db.Put(op.Key, nil, op.ValLen); err != nil {
			return Fig5Row{}, fmt.Errorf("dbbench fill: %w", err)
		}
	}
	if err := db.Flush(); err != nil {
		return Fig5Row{}, err
	}

	// Phase 2: readrandom with ER skew; measure steady state after a
	// warmup third.
	gen := workload.NewExpRange(p.Keys, er, p.Seed+7)
	warm := p.Reads / 3
	for i := 0; i < warm; i++ {
		if _, _, err := db.Get(workload.KeyName(gen.Next())); err != nil {
			return Fig5Row{}, err
		}
	}
	db.GetLat.Reset()
	db.SecondaryHits.Reset()
	db.SecondaryLookups.Reset()
	start := clock.Now()
	for i := 0; i < p.Reads-warm; i++ {
		if _, _, err := db.Get(workload.KeyName(gen.Next())); err != nil {
			return Fig5Row{}, err
		}
	}
	elapsed := clock.Now() - start
	ops := float64(p.Reads - warm)
	row := Fig5Row{
		Scheme:            s,
		ER:                er,
		SecondaryHitRatio: db.SecondaryHitRatio(),
		P50:               db.GetLat.Percentile(0.5),
		P99:               db.GetLat.Percentile(0.99),
		SimTime:           elapsed,
	}
	if elapsed > 0 {
		row.OpsPerSec = ops / elapsed.Seconds()
	}
	return row, nil
}

// RunFig5 reruns Figure 5: all four schemes at each ER value. Every
// (scheme, ER) cell is an independent DB + cache stack, so the cells fan
// across the worker pool; row order matches the serial sweep.
func RunFig5(p Fig5Params) ([]Fig5Row, error) {
	type point struct {
		er float64
		s  Scheme
	}
	var points []point
	for _, er := range p.ERValues {
		for _, s := range []Scheme{BlockCache, FileCache, ZoneCache, RegionCache} {
			points = append(points, point{er, s})
		}
	}
	out := make([]Fig5Row, len(points))
	err := forEachPoint(len(points), func(i int) error {
		pt := points[i]
		row, err := runDBBench(pt.s, pt.er, p, 0)
		if err != nil {
			return fmt.Errorf("fig5 %v er=%v: %w", pt.s, pt.er, err)
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table2Row is one cache-size cell of Table 2.
type Table2Row struct {
	Zones     int     `json:"zones"`
	CacheGiB  float64 `json:"cache_gib"` // paper-scale label (zones × 1077 MiB ≈ GiB steps)
	OpsPerSec float64 `json:"ops_per_sec"`
	HitRatio  float64 `json:"hit_ratio"`
}

// RunTable2 reruns Table 2: Zone-Cache under growing cache sizes at ER 25.
// The paper sweeps 4–8 GiB, i.e. ~4–8 zones.
func RunTable2(p Fig5Params) ([]Table2Row, error) {
	const minZones, maxZones = 4, 8
	out := make([]Table2Row, maxZones-minZones+1)
	err := forEachPoint(len(out), func(i int) error {
		zones := minZones + i
		row, err := runDBBench(ZoneCache, 25, p, zones)
		if err != nil {
			return fmt.Errorf("table2 zones=%d: %w", zones, err)
		}
		out[i] = Table2Row{
			Zones:     zones,
			CacheGiB:  float64(zones), // 1 zone ≈ 1 GiB at paper scale
			OpsPerSec: row.OpsPerSec,
			HitRatio:  row.SecondaryHitRatio,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
