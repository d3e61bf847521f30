// Gctuning: explores the Region-Cache middle layer's GC knobs — the empty-
// zone watermark and the victim valid-ratio threshold — which the paper
// explicitly leaves open ("the GC threshold and the zone selection
// threshold are configurable... Exploring the thresholds can be the future
// work", §3.3). Also demonstrates the §3.4 co-design: letting zone GC drop
// cold regions instead of migrating them.
package main

import (
	"fmt"
	"log"

	"znscache/internal/cache"
	"znscache/internal/flash"
	"znscache/internal/harness"
	"znscache/internal/middle"
	"znscache/internal/workload"
	"znscache/internal/zns"
)

const (
	zones      = 20
	regionSize = 256 << 10
	cacheBytes = int64(zones-5) * 16 << 20 // tight: GC under real pressure
	ops        = 600_000
)

func main() {
	fmt.Println("Region-Cache GC threshold exploration (the paper's future work)")
	fmt.Println("engine uses access-ordered (LRU) region eviction, which scatters")
	fmt.Println("region deaths across zones and puts the zone GC under pressure")
	fmt.Printf("device %d zones, cache %d MiB, %d ops\n\n", zones, cacheBytes>>20, ops)

	fmt.Printf("%-28s %10s %8s %10s %10s\n", "configuration", "ops/s", "WAF", "migrated", "hit")
	for _, cfg := range []struct {
		label     string
		minEmpty  int
		threshold float64
	}{
		{"watermark=2  victim<=20%", 2, 0.20},
		{"watermark=4  victim<=20%", 4, 0.20},
		{"watermark=8  victim<=20%", 8, 0.20},
		{"watermark=4  victim<=50%", 4, 0.50},
		{"watermark=4  victim<=80%", 4, 0.80},
	} {
		runConfig(cfg.label, cfg.minEmpty, cfg.threshold, false)
	}

	fmt.Println("\nCo-design (§3.4): GC consults the cache and drops cold regions")
	runCoDesign(false)
	runCoDesign(true)
}

func buildLayer(minEmpty int, threshold float64, eng **cache.Cache, coDesign bool) (*middle.Layer, error) {
	hw := harness.DefaultHW(zones)
	dev, err := zns.New(zns.Config{
		Geometry:      hw.Geometry(),
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: hw.BlocksPerZone,
	})
	if err != nil {
		return nil, err
	}
	mcfg := middle.Config{
		RegionSize:       regionSize,
		NumRegions:       int(cacheBytes / regionSize),
		OpenZones:        2,
		MinEmptyZones:    minEmpty,
		VictimValidRatio: threshold,
	}
	if coDesign {
		mcfg.DropFilter = func(id int) bool {
			return *eng != nil && (*eng).RegionDroppable(id)
		}
		mcfg.OnDrop = func(id int) {
			if *eng != nil {
				(*eng).InvalidateRegion(id)
			}
		}
	}
	return middle.New(dev, mcfg)
}

func drive(eng *cache.Cache) {
	gen := workload.NewBC(workload.BCConfig{Keys: 96 << 10, Seed: 3})
	for i := 0; i < ops; i++ {
		harness.ReadThrough(eng, gen.Next())
	}
}

func runConfig(label string, minEmpty int, threshold float64, coDesign bool) {
	var eng *cache.Cache
	layer, err := buildLayer(minEmpty, threshold, &eng, coDesign)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	eng, err = cache.New(cache.Config{Store: layer, Policy: cache.LRU})
	if err != nil {
		log.Fatalf("%s: engine: %v", label, err)
	}
	drive(eng)
	st := eng.Stats()
	fmt.Printf("%-28s %10.0f %8.2f %10d %9.1f%%\n",
		label, float64(ops)/st.SimulatedTime.Seconds(), layer.WA.Factor(),
		layer.Migrated.Load(), st.HitRatio*100)
}

func runCoDesign(enabled bool) {
	label := "migrate-all GC (baseline)"
	if enabled {
		label = "co-design GC (drop cold)"
	}
	var eng *cache.Cache
	layer, err := buildLayer(2, 0.20, &eng, enabled)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	eng, err = cache.New(cache.Config{Store: layer, Policy: cache.LRU})
	if err != nil {
		log.Fatalf("%s: engine: %v", label, err)
	}
	drive(eng)
	st := eng.Stats()
	fmt.Printf("%-28s WAF=%.2f migrated=%d dropped=%d hit=%.1f%% ops/s=%.0f\n",
		label, layer.WA.Factor(), layer.Migrated.Load(), layer.Dropped.Load(),
		st.HitRatio*100, float64(ops)/st.SimulatedTime.Seconds())
}
