// Command cachebench reruns the paper's evaluation on the simulated device
// stack: the micro-benchmarks (§4.1, CacheBench's bc mix against all four
// schemes) and the end-to-end runs (§4.2, an LSM key-value store, the
// RocksDB stand-in, on a simulated HDD with each scheme as its flash
// secondary cache).
//
// Experiments:
//
//	cachebench -experiment fig2      # overall throughput + hit ratio (Figure 2)
//	cachebench -experiment smallzone # Zone-Cache vs zone size (small-zone hypothesis)
//	cachebench -experiment admission # admission policy × scheme: device writes vs hit ratio
//	cachebench -experiment contracts # zone-resource limit sweep (open/active caps)
//	cachebench -experiment cdn       # chunked large-object sweep: chunk size × scheme
//	cachebench -experiment fig3      # region buffer fill times (Figure 3)
//	cachebench -experiment fig4      # OP-ratio sweep (Figure 4)
//	cachebench -experiment table1    # WA factors under OP ratios (Table 1)
//	cachebench -experiment fig5      # RocksDB ops/s, hit ratio, P50/P99 per scheme (Figure 5)
//	cachebench -experiment table2    # RocksDB Zone-Cache cache-size sweep (Table 2)
//	cachebench -experiment all       # everything, fig5 and table2 last
//
// Scale flags shrink or grow the run; defaults regenerate the numbers in
// EXPERIMENTS.md in a few minutes of wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"znscache/internal/harness"
	"znscache/internal/obs"
	"znscache/internal/workload"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "fig2|fig3|fig4|table1|smallzone|admission|contracts|cdn|fig5|table2|all")
		limits      = flag.String("limits", "", "comma-separated open-zone caps for -experiment contracts (default 14,8,4,2,1)")
		chunkKiB    = flag.String("chunk-kib", "", "comma-separated bigobj chunk sizes in KiB for -experiment cdn (default 128,512)")
		admission   = flag.String("admission", "", "admission policy for every rig: all|prob:P|reject-first[:BITS,WINDOW]|dynamic-random[:WINDOW_MS]|frequency[:THRESHOLD]")
		admitBudget = flag.Float64("admit-budget", 0, "device-write budget in bytes per simulated second (required by -admission dynamic-random; overrides the admission sweep's derived budgets)")
		zones       = flag.Int("zones", 0, "override device zone count")
		ops         = flag.Int("ops", 0, "override measured op count")
		warmup      = flag.Int("warmup", 0, "override warmup op count")
		keys        = flag.Int64("keys", 0, "override key-space size (fig5/table2: fillrandom key count)")
		reads       = flag.Int("reads", 0, "override readrandom op count (fig5/table2)")
		cacheZones  = flag.Int("cache-zones", 0, "override flash cache size in zones (fig5/table2)")
		seed        = flag.Uint64("seed", 0, "override workload seed")
		traceFile   = flag.String("trace", "", "replay a CSV trace file ('ts,key,size,op' records) instead of an experiment")
		scheme      = flag.String("scheme", "region", "scheme for -trace: block|file|zone|region")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
		jsonDir     = flag.String("json", "", "also write BENCH_<experiment>.json report files into this directory")
		eventsFile  = flag.String("events", "", "record device/cache events and write them as JSON to this file")
		traceCap    = flag.Int("trace-cap", obs.DefaultTraceCap, "event ring capacity for -events (newest kept)")
		faultRate   = flag.Float64("faults", 0, "inject device faults (errors, torn writes, latency spikes) at this per-op rate under every scheme")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for the -faults schedule")
	)
	flag.Parse()

	env, err := harness.ParseEnv(*admission, *admitBudget, *faultRate, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cachebench: %v\n", err)
		os.Exit(2)
	}
	if env.Admission != nil {
		fmt.Fprintf(os.Stderr, "admission policy armed: %s\n", env.Admission.Name())
	}
	if env.Faults != nil {
		fmt.Fprintf(os.Stderr, "fault injection armed: rate %g, seed %d\n", *faultRate, *faultSeed)
	}

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		harness.SetMetricsRegistry(reg)
		srv, err := obs.StartServer(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cachebench metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", srv.Addr())
	}
	if *eventsFile != "" {
		env.Trace = obs.NewTracer(*traceCap)
		defer func() {
			if err := writeEvents(*eventsFile, env.Trace); err != nil {
				fmt.Fprintf(os.Stderr, "cachebench events: %v\n", err)
			}
		}()
	}

	if *traceFile != "" {
		if err := replayTrace(env, *traceFile, *scheme, *zones); err != nil {
			fmt.Fprintf(os.Stderr, "cachebench trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// scale overrides an experiment's size fields with the -zones, -ops,
	// -warmup, -keys and -seed flags set; nil marks a field it lacks.
	scale := func(z, o, w *int, k *int64, sd *uint64) {
		set(z, *zones)
		set(o, *ops)
		set(w, *warmup)
		set(k, *keys)
		set(sd, *seed)
	}

	report := func(rep *harness.Report) error {
		if *jsonDir == "" {
			return nil
		}
		path, err := rep.WriteFile(*jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	// run runs experiment f when -experiment is all or one of name's
	// slash-separated names; matched records that some experiment ran.
	matched := false
	run := func(name string, f func() error) {
		if *experiment != "all" && !slices.Contains(strings.Split(name, "/"), *experiment) {
			return
		}
		matched = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "cachebench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig2", func() error {
		p := harness.DefaultFig2()
		scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
		p.Env = env
		rows, err := harness.RunFig2(p)
		if err != nil {
			return err
		}
		harness.PrintFig2(os.Stdout, rows)
		return report(&harness.Report{Experiment: "fig2", Fig2: rows})
	})
	run("smallzone", func() error {
		p := harness.DefaultSmallZone()
		scale(nil, &p.MeasureOps, nil, &p.Keys, &p.Seed)
		p.Env = env
		rows, err := harness.RunSmallZone(p)
		if err != nil {
			return err
		}
		harness.PrintSmallZone(os.Stdout, rows)
		return report(&harness.Report{Experiment: "smallzone", SmallZone: rows})
	})
	run("admission", func() error {
		p := harness.DefaultAdmissionSweep()
		scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
		set(&p.BudgetBytesPerSec, *admitBudget)
		p.Env = env
		rows, err := harness.RunAdmissionSweep(p)
		if err != nil {
			return err
		}
		harness.PrintAdmission(os.Stdout, rows)
		return report(&harness.Report{Experiment: "admission", Admission: rows})
	})
	run("contracts", func() error {
		p := harness.DefaultContracts()
		scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
		p.Env = env
		if *limits != "" {
			parsed, err := parseLimits(*limits)
			if err != nil {
				return err
			}
			p.Limits = parsed
		}
		rows, err := harness.RunContracts(p)
		if err != nil {
			return err
		}
		harness.PrintContracts(os.Stdout, rows)
		return report(&harness.Report{Experiment: "contracts", Contracts: rows})
	})
	run("cdn", func() error {
		p := harness.CDNParams{Env: env}
		scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Objects, &p.Seed)
		if *chunkKiB != "" {
			kib, err := parseLimits(*chunkKiB)
			if err != nil {
				return fmt.Errorf("-chunk-kib: %w", err)
			}
			for _, k := range kib {
				p.ChunkSizes = append(p.ChunkSizes, k<<10)
			}
		}
		rows, err := harness.RunCDN(p)
		if err != nil {
			return err
		}
		harness.PrintCDN(os.Stdout, rows)
		return report(&harness.Report{Experiment: "cdn", CDN: rows})
	})
	run("fig3", func() error {
		p := harness.DefaultFig3()
		scale(&p.Zones, nil, nil, nil, &p.Seed)
		p.Env = env
		rows, err := harness.RunFig3(p)
		if err != nil {
			return err
		}
		harness.PrintFig3(os.Stdout, rows)
		return report(&harness.Report{Experiment: "fig3", Fig3: rows})
	})
	// fig4 and table1 come from the same runs: either prints both.
	run("fig4/table1", func() error {
		p := harness.DefaultFig4()
		scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
		p.Env = env
		rows, err := harness.RunFig4Table1(p)
		if err != nil {
			return err
		}
		harness.PrintFig4Table1(os.Stdout, rows)
		return report(&harness.Report{Experiment: "fig4_table1", Fig4Table1: rows})
	})

	// fig5 and table2 run the LSM store over the flash cache (§4.2).
	db := harness.DefaultFig5()
	scale(nil, nil, nil, &db.Keys, &db.Seed)
	set(&db.Reads, *reads)
	set(&db.FlashCacheZones, *cacheZones)
	db.Env = env
	run("fig5", func() error {
		rows, err := harness.RunFig5(db)
		if err != nil {
			return err
		}
		harness.PrintFig5(os.Stdout, rows)
		return report(&harness.Report{Experiment: "fig5", Fig5: rows})
	})
	run("table2", func() error {
		rows, err := harness.RunTable2(db)
		if err != nil {
			return err
		}
		harness.PrintTable2(os.Stdout, rows)
		return report(&harness.Report{Experiment: "table2", Table2: rows})
	})

	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// parseLimits parses the -limits flag: comma-separated positive ints.
func parseLimits(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -limits entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeEvents dumps the tracer's retained events as a JSON array.
func writeEvents(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d events retained, %d total)\n", path, len(tr.Events()), tr.Total())
	return nil
}

// replayTrace runs a CSV trace file (see workload.CSVTrace) against one
// scheme, built in env, and reports the outcome.
func replayTrace(env harness.Env, path, schemeName string, zones int) error {
	s, err := harness.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	if zones == 0 {
		zones = 25
	}
	hw := harness.DefaultHW(zones)
	cfg := harness.RigConfig{
		Scheme: s, HW: hw, CacheBytes: int64(zones) * hw.ZoneBytes() * 8 / 10,
		Trace: env.Trace, Faults: env.Faults, Admission: env.Admission,
	}
	if s == harness.ZoneCache {
		cfg.ZoneCount = zones
	}
	rig, err := harness.Build(cfg)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := workload.NewCSVTrace(f)
	ops := 0
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		ops++
		switch op.Kind {
		case workload.OpGet:
			if _, hit, _ := rig.Engine.Get(op.Key); !hit && op.ValLen > 0 {
				rig.Engine.Set(op.Key, nil, op.ValLen) //nolint:errcheck
			}
		case workload.OpSet:
			rig.Engine.Set(op.Key, nil, op.ValLen) //nolint:errcheck
		case workload.OpDelete:
			rig.Engine.Delete(op.Key)
		}
	}
	if err := tr.Err(); err != nil {
		return err
	}
	st := rig.Engine.Stats()
	fmt.Printf("%s: %d trace ops in %v simulated (%.0f ops/s)\n",
		s, ops, st.SimulatedTime, float64(ops)/st.SimulatedTime.Seconds())
	fmt.Printf("hit %.2f%%, %d evictions, WAF %.2f\n", st.HitRatio*100, st.Evictions, rig.WAFactor())
	return nil
}

// set stores a flag's value in *dst unless the flag is zero (not set) or
// dst is nil.
func set[T comparable](dst *T, v T) {
	var unset T
	if dst != nil && v != unset {
		*dst = v
	}
}
