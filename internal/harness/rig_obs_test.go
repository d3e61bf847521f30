package harness

import (
	"fmt"
	"testing"

	"znscache/internal/obs"
)

// TestBuildRegistersMetrics: with a global registry installed, Build binds
// every layer's instruments, the series carry the scheme label, and driving
// the engine moves the scraped values.
func TestBuildRegistersMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetricsRegistry(reg)
	defer SetMetricsRegistry(nil)

	rig, err := Build(RigConfig{Scheme: RegionCache, HW: DefaultHW(8)})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() == 0 {
		t.Fatal("Build with a global registry registered nothing")
	}

	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%d", i%512)
		if _, hit, _ := rig.Engine.Get(key); !hit {
			rig.Engine.Set(key, nil, 4096) //nolint:errcheck
		}
	}
	st := rig.Engine.Stats()

	byKey := map[string]float64{}
	var schemes, zoneSeries int
	for _, s := range reg.Gather() {
		if s.Labels.Get("scheme") == RegionCache.String() {
			schemes++
		}
		if s.Labels.Get("zone") != "" {
			zoneSeries++
		}
		byKey[s.Name+"/"+s.Labels.Get("zone")] = s.Value
	}
	if schemes == 0 {
		t.Error("no series carry the scheme label")
	}
	if zoneSeries < 3*8 {
		t.Errorf("per-zone gauges missing: %d series, want >= %d", zoneSeries, 3*8)
	}
	// Stats() and the scrape are views over the same instruments.
	if got := byKey["cache_gets_total/"]; got != float64(st.Gets) {
		t.Errorf("scraped cache_gets_total = %v, Stats().Gets = %d", got, st.Gets)
	}
	if got := byKey["cache_sets_total/"]; got != float64(st.Sets) {
		t.Errorf("scraped cache_sets_total = %v, Stats().Sets = %d", got, st.Sets)
	}

	// Rebuilding a rig re-binds series rather than duplicating them: the
	// second build reuses the same rig label only if the label matches, so
	// series count at most doubles and the registry never errors.
	before := reg.Len()
	if _, err := Build(RigConfig{Scheme: RegionCache, HW: DefaultHW(8)}); err != nil {
		t.Fatal(err)
	}
	if reg.Len() <= before {
		t.Errorf("second rig registered no new series (len %d -> %d)", before, reg.Len())
	}
}

// TestBuildWiresTracer: a tracer in RigConfig reaches the engine and the
// device layers, and a workload that seals regions and resets zones leaves
// the corresponding typed events in the ring.
func TestBuildWiresTracer(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	rig, err := Build(RigConfig{Scheme: RegionCache, HW: DefaultHW(8), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Small device + steady inserts: regions seal, zones reset under churn.
	for i := 0; i < 60_000; i++ {
		key := fmt.Sprintf("key-%d", i)
		rig.Engine.Set(key, nil, 4096) //nolint:errcheck
	}
	if tr.Total() == 0 {
		t.Fatal("no events emitted")
	}
	kinds := map[obs.EventType]int{}
	for _, e := range tr.Events() {
		kinds[e.Type]++
	}
	for _, want := range []obs.EventType{obs.EvAdmit, obs.EvRegionSeal, obs.EvZoneReset} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded (got %v)", want, kinds)
		}
	}
}

// TestBuildWithoutHooksIsClean: no global registry, no tracer — Build leaves
// both disabled (the zero-overhead default every benchmark relies on).
func TestBuildWithoutHooksIsClean(t *testing.T) {
	rig, err := Build(RigConfig{Scheme: RegionCache, HW: DefaultHW(8)})
	if err != nil {
		t.Fatal(err)
	}
	if rig.ZNS.Trace != nil || rig.Middle.Trace != nil {
		t.Error("tracer wired without being requested")
	}
}

// TestPayloadMetricsFollowEvictions: on a Region-Cache rig whose regions are
// one payload segment each, every eviction adds its region's bytes to
// zns_payload_dropped_bytes_total, and zns_payload_bytes is the bytes of the
// regions the middle layer maps — not of every zone written since its reset.
func TestPayloadMetricsFollowEvictions(t *testing.T) {
	rig, err := Build(RigConfig{
		Scheme:      RegionCache,
		HW:          HWProfile{Zones: 16, BlocksPerZone: 4, PagesPerBlock: 64, Channels: 2, DiesPerChan: 2},
		CacheBytes:  6 << 20,
		TrackValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rig.RegisterMetrics(reg, obs.Labels{})
	scrape := func() (held, dropped float64) {
		for _, s := range reg.Gather() {
			switch s.Name {
			case "zns_payload_bytes":
				held = s.Value
			case "zns_payload_dropped_bytes_total":
				dropped = s.Value
			}
		}
		return held, dropped
	}
	region := float64(rig.Middle.RegionSize())
	value := make([]byte, 16<<10)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 1000; i++ {
			if err := rig.Engine.Set(fmt.Sprintf("key-%d-%d", round, i), value, len(value)); err != nil {
				t.Fatal(err)
			}
		}
		held, dropped := scrape()
		evictions := rig.Engine.Stats().Evictions
		if evictions == 0 || rig.Middle.Resets.Load() == 0 {
			t.Fatalf("round %d: %d evictions, %d zone resets: the rig never evicted or reclaimed",
				round, evictions, rig.Middle.Resets.Load())
		}
		if want := float64(evictions) * region; dropped != want {
			t.Errorf("round %d: zns_payload_dropped_bytes_total = %v after %d evictions, want %v", round, dropped, evictions, want)
		}
		if want := float64(rig.Middle.MappedRegions()) * region; held != want {
			t.Errorf("round %d: zns_payload_bytes = %v with %d regions mapped, want %v", round, held, rig.Middle.MappedRegions(), want)
		}
	}
}
