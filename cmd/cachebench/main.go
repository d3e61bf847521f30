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

// sizes holds the scale flags: each overrides an experiment's default
// size when set, and is refused when no selected run reads it.
type sizes struct {
	zones, ops, warmup, reads, cacheZones int
	keys                                  int64
	limits, chunkKiB                      string
	admitBudget                           float64
}

func main() {
	var sz sizes
	flag.StringVar(&sz.limits, "limits", "", "comma-separated open-zone caps for -experiment contracts (default 14,8,4,2,1)")
	flag.StringVar(&sz.chunkKiB, "chunk-kib", "", "comma-separated bigobj chunk sizes in KiB for -experiment cdn (default 128,512)")
	flag.Float64Var(&sz.admitBudget, "admit-budget", 0, "device-write budget in bytes per simulated second (required by -admission dynamic-random; overrides the admission sweep's derived budgets)")
	flag.IntVar(&sz.zones, "zones", 0, "override device zone count")
	flag.IntVar(&sz.ops, "ops", 0, "override measured op count")
	flag.IntVar(&sz.warmup, "warmup", 0, "override warmup op count")
	flag.Int64Var(&sz.keys, "keys", 0, "override key-space size (fig5/table2: fillrandom key count)")
	flag.IntVar(&sz.reads, "reads", 0, "override readrandom op count (fig5/table2)")
	flag.IntVar(&sz.cacheZones, "cache-zones", 0, "override flash cache size in zones (fig5/table2)")
	var (
		experiment  = flag.String("experiment", "all", "fig2|fig3|fig4|table1|smallzone|admission|contracts|cdn|fig5|table2|all")
		admission   = flag.String("admission", "", "admission policy for every rig: all|prob:P|reject-first[:BITS,WINDOW]|dynamic-random[:WINDOW_MS]|frequency[:THRESHOLD]")
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

	env, err := harness.ParseEnv(*admission, sz.admitBudget, *faultRate, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cachebench: %v\n", err)
		os.Exit(2)
	}
	if *eventsFile != "" {
		env.Trace = obs.NewTracer(*traceCap)
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
	all := experiments(sz, *seed, env, report)
	runs := selected(all, *experiment, *traceFile)
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	if f := unreadScaleFlag(all, runs, *admission, given); f != "" {
		fmt.Fprintf(os.Stderr, "cachebench: -%s is not read by %s\n", f, names(runs))
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
	if env.Trace != nil {
		defer func() {
			if err := writeEvents(*eventsFile, env.Trace); err != nil {
				fmt.Fprintf(os.Stderr, "cachebench events: %v\n", err)
			}
		}()
	}

	if *traceFile != "" {
		if err := replayTrace(env, *traceFile, *scheme, sz.zones); err != nil {
			fmt.Fprintf(os.Stderr, "cachebench trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range runs {
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "cachebench %s: %v\n", e.names, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// An experiment is one -experiment entry: the slash-separated names that
// select it, the scale flags it reads, and its run.
type experiment struct {
	names string
	reads []string
	run   func() error
}

// experiments lists every experiment in the order -experiment all runs
// them, fig5 and table2 last. Each builds its rigs in env, at the scale sz
// and seed give, and hands its report to report.
func experiments(sz sizes, seed uint64, env harness.Env, report func(*harness.Report) error) []experiment {
	// scale overrides an experiment's size fields with the -zones, -ops,
	// -warmup, -keys and -seed flags set; nil marks a field it lacks.
	scale := func(z, o, w *int, k *int64, sd *uint64) {
		set(z, sz.zones)
		set(o, sz.ops)
		set(w, sz.warmup)
		set(k, sz.keys)
		set(sd, seed)
	}
	// fig5 and table2 run the LSM store over the flash cache (§4.2).
	db := harness.DefaultFig5()
	scale(nil, nil, nil, &db.Keys, &db.Seed)
	set(&db.Reads, sz.reads)
	set(&db.FlashCacheZones, sz.cacheZones)
	db.Env = env
	micro := []string{"zones", "ops", "warmup", "keys"}
	lsm := []string{"keys", "reads", "cache-zones"}

	return []experiment{
		{"fig2", micro, func() error {
			p := harness.DefaultFig2()
			scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
			p.Env = env
			rows, err := harness.RunFig2(p)
			if err != nil {
				return err
			}
			harness.PrintFig2(os.Stdout, rows)
			return report(&harness.Report{Experiment: "fig2", Fig2: rows})
		}},
		{"smallzone", []string{"ops", "keys"}, func() error {
			p := harness.DefaultSmallZone()
			scale(nil, &p.MeasureOps, nil, &p.Keys, &p.Seed)
			p.Env = env
			rows, err := harness.RunSmallZone(p)
			if err != nil {
				return err
			}
			harness.PrintSmallZone(os.Stdout, rows)
			return report(&harness.Report{Experiment: "smallzone", SmallZone: rows})
		}},
		{"admission", append(micro, "admit-budget"), func() error {
			p := harness.DefaultAdmissionSweep()
			scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
			set(&p.BudgetBytesPerSec, sz.admitBudget)
			p.Env = env
			rows, err := harness.RunAdmissionSweep(p)
			if err != nil {
				return err
			}
			harness.PrintAdmission(os.Stdout, rows)
			return report(&harness.Report{Experiment: "admission", Admission: rows})
		}},
		{"contracts", append(micro, "limits"), func() error {
			p := harness.DefaultContracts()
			scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
			p.Env = env
			if sz.limits != "" {
				parsed, err := parseLimits(sz.limits)
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
		}},
		{"cdn", append(micro, "chunk-kib"), func() error {
			p := harness.CDNParams{Env: env}
			scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Objects, &p.Seed)
			if sz.chunkKiB != "" {
				kib, err := parseLimits(sz.chunkKiB)
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
		}},
		{"fig3", []string{"zones"}, func() error {
			p := harness.DefaultFig3()
			scale(&p.Zones, nil, nil, nil, &p.Seed)
			p.Env = env
			rows, err := harness.RunFig3(p)
			if err != nil {
				return err
			}
			harness.PrintFig3(os.Stdout, rows)
			return report(&harness.Report{Experiment: "fig3", Fig3: rows})
		}},
		// fig4 and table1 come from the same runs: either prints both.
		{"fig4/table1", micro, func() error {
			p := harness.DefaultFig4()
			scale(&p.Zones, &p.MeasureOps, &p.WarmupOps, &p.Keys, &p.Seed)
			p.Env = env
			rows, err := harness.RunFig4Table1(p)
			if err != nil {
				return err
			}
			harness.PrintFig4Table1(os.Stdout, rows)
			return report(&harness.Report{Experiment: "fig4_table1", Fig4Table1: rows})
		}},
		{"fig5", lsm, func() error {
			rows, err := harness.RunFig5(db)
			if err != nil {
				return err
			}
			harness.PrintFig5(os.Stdout, rows)
			return report(&harness.Report{Experiment: "fig5", Fig5: rows})
		}},
		{"table2", lsm, func() error {
			rows, err := harness.RunTable2(db)
			if err != nil {
				return err
			}
			harness.PrintTable2(os.Stdout, rows)
			return report(&harness.Report{Experiment: "table2", Table2: rows})
		}},
	}
}

// selected returns the runs the command line picks: a -trace replay, which
// reads -zones, or the experiments of all that -experiment names (every one
// for "all").
func selected(all []experiment, name, traceFile string) []experiment {
	if traceFile != "" {
		return []experiment{{names: "trace", reads: []string{"zones"}}}
	}
	var runs []experiment
	for _, e := range all {
		if name == "all" || slices.Contains(strings.Split(e.names, "/"), name) {
			runs = append(runs, e)
		}
	}
	return runs
}

// unreadScaleFlag returns the first flag in given that some experiment of
// all reads but no run in runs does, or "" if there is none, so a mistyped
// scale flag cannot yield a default-sized result. Under -admission
// dynamic-random every rig reads -admit-budget.
func unreadScaleFlag(all, runs []experiment, admission string, given []string) string {
	reads := func(exps []experiment, f string) bool {
		return slices.ContainsFunc(exps, func(e experiment) bool { return slices.Contains(e.reads, f) })
	}
	for _, f := range given {
		if reads(all, f) && !reads(runs, f) &&
			!(f == "admit-budget" && strings.HasPrefix(admission, "dynamic-random")) {
			return f
		}
	}
	return ""
}

// names joins the names of runs for a message.
func names(runs []experiment) string {
	var out []string
	for _, e := range runs {
		out = append(out, e.names)
	}
	return strings.Join(out, ", ")
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
		harness.ReadThrough(rig.Engine, op)
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
