package harness

import (
	"bytes"
	"fmt"
	"testing"

	"znscache/internal/sim"
)

// TestFullFidelityRoundTrip runs every scheme with real payloads end to end
// (engine buffers → region store → simulated device and back), under enough
// churn to force evictions, zone GC (Region), filesystem cleaning (File),
// and FTL GC (Block). Every readable key must return exactly the bytes last
// written for it.
func TestFullFidelityRoundTrip(t *testing.T) {
	for _, s := range AllSchemes {
		t.Run(s.String(), func(t *testing.T) {
			hw := DefaultHW(10)
			cfg := RigConfig{
				Scheme:      s,
				HW:          hw,
				CacheBytes:  7 * hw.ZoneBytes(),
				TrackValues: true,
			}
			if s == ZoneCache {
				cfg.ZoneCount = hw.actualZones()
			}
			rig, err := Build(cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			eng := rig.Engine

			// Model of what should be cached: key -> generation counter.
			// Values are derived from key+generation so staleness is
			// detectable.
			value := func(key string, gen int) []byte {
				return bytes.Repeat([]byte(fmt.Sprintf("%s/%d|", key, gen)), 600)
			}
			gens := map[string]int{}
			rng := sim.NewRand(99)
			const keys = 600
			for i := 0; i < 40_000; i++ {
				k := fmt.Sprintf("key-%04d", rng.Intn(keys))
				switch rng.Intn(10) {
				case 0:
					eng.Delete(k)
					delete(gens, k)
				default:
					gens[k]++
					if err := eng.Set(k, value(k, gens[k]), 0); err != nil {
						t.Fatalf("Set: %v", err)
					}
				}
			}

			checked, hits := 0, 0
			for k, g := range gens {
				got, ok, err := eng.Get(k)
				if err != nil {
					t.Fatalf("Get(%s): %v", k, err)
				}
				checked++
				if !ok {
					continue // evicted: allowed
				}
				hits++
				if !bytes.Equal(got, value(k, g)) {
					t.Fatalf("%v: key %s returned stale or corrupt value", s, k)
				}
			}
			if hits == 0 {
				t.Fatalf("%v: zero hits across %d keys; test vacuous", s, checked)
			}
			if eng.Stats().Evictions == 0 {
				t.Fatalf("%v: churn never forced an eviction; test vacuous", s)
			}
		})
	}
}

// TestSchemesSeeIdenticalLogicalState verifies that with identical op
// streams the engine state (hit counts, key population) is identical across
// Block/File/Region — the schemes must differ only below the region store.
func TestSchemesSeeIdenticalLogicalState(t *testing.T) {
	var base *SchemeResult
	for _, s := range []Scheme{BlockCache, FileCache, RegionCache} {
		hw := DefaultHW(12)
		rig, err := Build(RigConfig{Scheme: s, HW: hw, CacheBytes: 8 * hw.ZoneBytes()})
		if err != nil {
			t.Fatal(err)
		}
		res := RunBC(rig, 8<<10, 40_000, 40_000, 77)
		if base == nil {
			base = &res
			continue
		}
		if res.HitRatio != base.HitRatio {
			t.Errorf("%v hit ratio %.6f differs from baseline %.6f — logical divergence",
				s, res.HitRatio, base.HitRatio)
		}
	}
}

// TestMiddleLayerSurvivesDeviceChurn drives the Region-Cache hard enough to
// recycle every zone several times, then validates the middle layer's
// structural invariants against the device's zone states.
func TestMiddleLayerSurvivesDeviceChurn(t *testing.T) {
	hw := DefaultHW(10)
	rig, err := Build(RigConfig{Scheme: RegionCache, HW: hw, CacheBytes: 7 * hw.ZoneBytes()})
	if err != nil {
		t.Fatal(err)
	}
	RunBC(rig, 16<<10, 200_000, 200_000, 5)
	if rig.ZNS.Resets.Load() == 0 {
		t.Fatal("no zone was ever reset; churn insufficient")
	}
	// Every mapped region must be readable (mapping points below some
	// zone's write pointer).
	n := rig.Middle.NumRegions()
	readable := 0
	for id := 0; id < n; id++ {
		_, err := rig.Middle.ReadRegion(rig.Clock.Now(), id, nil, 4096, 0)
		if err == nil {
			readable++
		}
	}
	if readable == 0 {
		t.Fatal("no region readable after churn")
	}
	// Wear should be spread: no zone hogs all resets.
	var total, max uint64
	for _, z := range rig.ZNS.Zones() {
		total += z.Resets
		if z.Resets > max {
			max = z.Resets
		}
	}
	if total > 10 && max > total*6/10 {
		t.Errorf("zone wear concentrated: max %d of %d resets on one zone", max, total)
	}
}
