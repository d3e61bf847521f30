// Command dbbench reruns the paper's end-to-end evaluation (§4.2): an LSM
// key-value store (the RocksDB stand-in) on a simulated HDD with each of
// the four cache schemes as its flash secondary cache.
//
// Experiments:
//
//	dbbench -experiment fig5    # ops/s, hit ratio, P50/P99 per scheme (Figure 5)
//	dbbench -experiment table2  # Zone-Cache cache-size sweep (Table 2)
//	dbbench -experiment all     # both
package main

import (
	"flag"
	"fmt"
	"os"

	"znscache/internal/harness"
	"znscache/internal/obs"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "fig5|table2|all")
		keys        = flag.Int64("keys", 0, "override fillrandom key count")
		reads       = flag.Int("reads", 0, "override readrandom op count")
		cacheZones  = flag.Int("cache-zones", 0, "override flash cache size in zones")
		seed        = flag.Uint64("seed", 0, "override workload seed")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
		jsonDir     = flag.String("json", "", "also write BENCH_<experiment>.json report files into this directory")
		faultRate   = flag.Float64("faults", 0, "inject device faults (errors, torn writes, latency spikes) at this per-op rate under every scheme")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for the -faults schedule")
		admission   = flag.String("admission", "", "admission policy for every flash cache: all|prob:P|reject-first[:BITS,WINDOW]|dynamic-random[:WINDOW_MS]|frequency[:THRESHOLD]")
		admitBudget = flag.Float64("admit-budget", 0, "device-write budget in bytes per simulated second (required by -admission dynamic-random)")
	)
	flag.Parse()

	env, err := harness.ParseEnv(*admission, *admitBudget, *faultRate, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbbench: %v\n", err)
		os.Exit(2)
	}
	if env.Admission != nil {
		fmt.Fprintf(os.Stderr, "admission policy armed: %s\n", env.Admission.Name())
	}
	if env.Faults != nil {
		fmt.Fprintf(os.Stderr, "fault injection armed: rate %g, seed %d\n", *faultRate, *faultSeed)
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		harness.SetMetricsRegistry(reg)
		srv, err := obs.StartServer(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbbench metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", srv.Addr())
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

	p := harness.DefaultFig5()
	set(&p.Keys, *keys)
	set(&p.Reads, *reads)
	set(&p.FlashCacheZones, *cacheZones)
	set(&p.Seed, *seed)
	p.Env = env

	// fail exits when experiment name failed.
	fail := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbbench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *experiment == "all" || *experiment == "fig5" {
		rows, err := harness.RunFig5(p)
		fail("fig5", err)
		harness.PrintFig5(os.Stdout, rows)
		fail("fig5", report(harness.NewFig5Report(rows)))
		fmt.Println()
	}
	if *experiment == "all" || *experiment == "table2" {
		rows, err := harness.RunTable2(p)
		fail("table2", err)
		harness.PrintTable2(os.Stdout, rows)
		fail("table2", report(harness.NewTable2Report(rows)))
	}
	switch *experiment {
	case "all", "fig5", "table2":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// set stores a flag's value in *dst unless the flag is zero (not set).
func set[T comparable](dst *T, v T) {
	var unset T
	if v != unset {
		*dst = v
	}
}
