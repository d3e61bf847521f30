package harness

import (
	"bytes"
	"fmt"
	"maps"
	"sync/atomic"
	"testing"

	"znscache/internal/cache"
	"znscache/internal/fault"
	"znscache/internal/obs"
)

// TestBuildRegistersMetrics: with a global registry installed, Build binds
// every layer's instruments for each scheme, the series carry the scheme
// label, the region store's carry its store label, and driving the engine
// moves the scraped values.
func TestBuildRegistersMetrics(t *testing.T) {
	stores := map[Scheme]string{BlockCache: "block", FileCache: "file", ZoneCache: "zone"}
	for _, scheme := range AllSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			SetMetricsRegistry(reg)
			defer SetMetricsRegistry(nil)

			hw := DefaultHW(8)
			cfg := RigConfig{Scheme: scheme, HW: hw, CacheBytes: 4 * hw.ZoneBytes()}
			rig, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reg.Len() == 0 {
				t.Fatal("Build with a global registry registered nothing")
			}

			// ~62 MiB of sets: every scheme flushes, Zone-Cache's 16 MiB
			// regions included.
			for i := 0; i < 4000; i++ {
				key := fmt.Sprintf("key-%d", i)
				if _, hit, _ := rig.Engine.Get(key); !hit {
					rig.Engine.Set(key, nil, 16<<10) //nolint:errcheck
				}
			}
			st := rig.Engine.Stats()
			if st.Flushes == 0 {
				t.Fatal("workload flushed no region")
			}

			byKey := map[string]float64{}
			var schemes, zoneSeries int
			storeWrites := map[string]float64{}
			for _, s := range reg.Gather() {
				if s.Labels.Get("scheme") == scheme.String() {
					schemes++
				}
				if s.Labels.Get("zone") != "" {
					zoneSeries++
				}
				if s.Name == "store_region_writes_total" {
					storeWrites[s.Labels.Get("store")] = s.Value
				}
				byKey[s.Name+"/"+s.Labels.Get("zone")] = s.Value
			}
			if schemes == 0 {
				t.Error("no series carry the scheme label")
			}
			// Every scheme but Block-Cache runs on the ZNS device.
			if wantZones := 3 * 8; scheme != BlockCache && zoneSeries < wantZones {
				t.Errorf("per-zone gauges missing: %d series, want >= %d", zoneSeries, wantZones)
			}
			// Stats() and the scrape are views over the same instruments.
			if got := byKey["cache_gets_total/"]; got != float64(st.Gets) {
				t.Errorf("scraped cache_gets_total = %v, Stats().Gets = %d", got, st.Gets)
			}
			if got := byKey["cache_sets_total/"]; got != float64(st.Sets) {
				t.Errorf("scraped cache_sets_total = %v, Stats().Sets = %d", got, st.Sets)
			}
			// The region store's trio carries its own label; Region-Cache's
			// store is the middle layer, which exports its own series.
			want := map[string]float64{}
			if label, ok := stores[scheme]; ok {
				want[label] = float64(st.Flushes)
			}
			if !maps.Equal(storeWrites, want) {
				t.Errorf("store_region_writes_total by store label = %v, want %v (Stats().Flushes = %d)",
					storeWrites, want, st.Flushes)
			}

			// Rebuilding a rig re-binds series rather than duplicating
			// them: the second build reuses the same rig label only if the
			// label matches, so series count at most doubles and the
			// registry never errors.
			before := reg.Len()
			if _, err := Build(cfg); err != nil {
				t.Fatal(err)
			}
			if reg.Len() <= before {
				t.Errorf("second rig registered no new series (len %d -> %d)", before, reg.Len())
			}
		})
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

// TestSealedGetByScheme: with the read index on, a Get of a sealed key is
// served lock-free out of the store's view on Region-Cache, whose 256 KiB
// regions are one payload segment each, and reads the store on Block-, File-
// and Zone-Cache, whose stores lend no view. Both return the key's bytes.
func TestSealedGetByScheme(t *testing.T) {
	for _, scheme := range AllSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			hw := DefaultHW(8)
			rig, err := Build(RigConfig{
				Scheme: scheme, HW: hw, CacheBytes: 4 * hw.ZoneBytes(),
				TrackValues: true, ReadIndex: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			rig.RegisterMetrics(reg, obs.Labels{})
			scrape := func() (storeHits, storeReads float64) {
				for _, s := range reg.Gather() {
					switch {
					case s.Name == "cache_fast_get_tier_hits_total" && s.Labels.Get("tier") == "store":
						storeHits = s.Value
					case s.Name == "store_region_reads_total":
						storeReads += s.Value
					}
				}
				return storeHits, storeReads
			}
			want := bytes.Repeat([]byte("sealed"), 700)
			if err := rig.Engine.Set("k", want, len(want)); err != nil {
				t.Fatal(err)
			}
			if err := rig.Engine.SealOpen(); err != nil {
				t.Fatal(err)
			}
			sh, err := cache.NewSharded([]*cache.Cache{rig.Engine})
			if err != nil {
				t.Fatal(err)
			}
			hits, reads := scrape()
			got, ok, err := sh.Get("k")
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get = (%d bytes, %v, %v), want its %d bytes", len(got), ok, err, len(want))
			}
			hits2, reads2 := scrape()
			wantHits, wantReads := hits, reads+1
			if scheme == RegionCache {
				wantHits, wantReads = hits+1, reads
			}
			if hits2 != wantHits || reads2 != wantReads {
				t.Errorf("tier=store hits %v -> %v, store_region_reads_total %v -> %v; want %v and %v",
					hits, hits2, reads, reads2, wantHits, wantReads)
			}
		})
	}
}

// TestExperimentsHandEnvToEveryRig runs every cachebench and dbbench
// experiment, tiny, in an Env of a counting admission factory, a fault
// schedule and a tracer, and pins per experiment how many rigs it built, how
// many run on a fault injector and how many engines took their admission
// policy from Env. The tracer has seen every rig when it holds one admit or
// reject event per set the rigs' engines counted. The global registry
// enumerates the rigs, so this test must not run in parallel.
func TestExperimentsHandEnvToEveryRig(t *testing.T) {
	cases := []struct {
		name           string
		rigs, admitted int
		run            func(Env) error
	}{
		{"fig2", 4, 4, func(env Env) error {
			_, err := RunFig2(Fig2Params{Zones: 5, Keys: 256, WarmupOps: 100, MeasureOps: 100, Seed: 1, Env: env})
			return err
		}},
		{"fig3", 2, 2, func(env Env) error {
			_, err := RunFig3(Fig3Params{Zones: 5, ValueLen: 128 << 10, RegionsAfterOnset: 1, Seed: 2, Env: env})
			return err
		}},
		{"fig4_table1", 3, 3, func(env Env) error {
			_, err := RunFig4Table1(Fig4Params{Zones: 5, OPRatios: []float64{0.2}, Keys: 256, WarmupOps: 100, MeasureOps: 100, Seed: 3, Env: env})
			return err
		}},
		{"smallzone", 2, 2, func(env Env) error {
			_, err := RunSmallZone(SmallZoneParams{DeviceMiB: 80, ZoneSizesMiB: []int{16}, Keys: 256, WarmupOps: 100, MeasureOps: 100, Seed: 6, Env: env})
			return err
		}},
		// The sweep's rigs take the sweep's own policies.
		{"admission", 2, 0, func(env Env) error {
			_, err := RunAdmissionSweep(AdmissionSweepParams{Zones: 5, Keys: 256, WarmupOps: 100, MeasureOps: 100, Seed: 11,
				Policies: []string{"reject-first"}, Schemes: []Scheme{RegionCache}, Env: env})
			return err
		}},
		{"contracts", 4, 4, func(env Env) error {
			_, err := RunContracts(ContractsParams{Zones: 5, Keys: 256, WarmupOps: 100, MeasureOps: 100, Seed: 1, Limits: []int{14}, Env: env})
			return err
		}},
		// bigobj owns admission: every cdn engine admits all chunks.
		{"cdn", 2, 0, func(env Env) error {
			_, err := RunCDN(CDNParams{Zones: 4, Objects: 20, WarmupOps: 20, MeasureOps: 20, Seed: 42,
				ChunkSizes: []int{64 << 10}, Schemes: []Scheme{RegionCache, ZoneCache}, Env: env})
			return err
		}},
		{"fig5", 4, 4, func(env Env) error {
			_, err := RunFig5(tinyFig5(env))
			return err
		}},
		{"table2", 5, 5, func(env Env) error {
			_, err := RunTable2(tinyFig5(env))
			return err
		}},
	}
	for _, c := range cases {
		reg := obs.NewRegistry()
		var built atomic.Int64
		var events setEvents
		tr := obs.NewTracer(1)
		tr.SetSink(&events)
		SetMetricsRegistry(reg)
		err := c.run(Env{Trace: tr, Faults: &fault.Config{Seed: 1}, Admission: countingAdmission{&built}})
		SetMetricsRegistry(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rigs, faulted := map[string]bool{}, map[string]bool{}
		var sets float64
		for _, s := range reg.Gather() {
			switch s.Name {
			case "cache_sets_total":
				rigs[s.Labels.Get("rig")] = true
				sets += s.Value
			case "fault_crash_refusals_total":
				faulted[s.Labels.Get("rig")] = true
			}
		}
		if len(rigs) != c.rigs || len(faulted) != c.rigs || built.Load() != int64(c.admitted) {
			t.Errorf("%s: %d rigs, %d on a fault injector, %d admission policies from Env; want %d, %d, %d",
				c.name, len(rigs), len(faulted), built.Load(), c.rigs, c.rigs, c.admitted)
		}
		if got := events.n.Load(); sets == 0 || float64(got) != sets {
			t.Errorf("%s: tracer saw %d admit/reject events for %v sets", c.name, got, sets)
		}
	}
}

// tinyFig5 is the smallest Figure 5 / Table 2 run.
func tinyFig5(env Env) Fig5Params {
	return Fig5Params{
		Keys: 2000, Reads: 300, ERValues: []float64{25},
		FlashCacheZones: 2, DeviceZones: 8, KeyLen: 16, ValLen: 64,
		DRAMCacheBytes: 16 << 10, Seed: 4, Env: env,
	}
}

// countingAdmission builds admit-all policies and counts them.
type countingAdmission struct{ built *atomic.Int64 }

func (countingAdmission) Name() string { return "counting" }

func (f countingAdmission) New(cache.AdmissionParams) cache.Admission {
	f.built.Add(1)
	return cache.AdmitAll{}
}

// setEvents counts the admit and reject events, one per engine set.
type setEvents struct{ n atomic.Int64 }

func (s *setEvents) TraceEvent(e obs.Event) {
	if e.Type == obs.EvAdmit || e.Type == obs.EvReject {
		s.n.Add(1)
	}
}
