// Command loadgen benchmarks a memcached-protocol server (cmd/cacheserver or
// real memcached) with pipelined connections and a zipf-skewed get/set/delete
// mix. Two modes:
//
//   - closed loop (default): every connection keeps its pipeline full, so
//     achieved QPS is the server's ceiling at that concurrency.
//   - open loop (-qps): batches are sent on a fixed schedule and latency is
//     measured from the scheduled time, so a slow server accrues queueing
//     delay instead of silently slowing the clients (coordinated omission).
//
// The summary prints achieved QPS with p50/p99/p999 latency; -json writes a
// BENCH_serve.json report in the harness schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"znscache/internal/harness"
	"znscache/internal/server"
	"znscache/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11211", "server address")
		conns    = flag.Int("conns", 8, "concurrent connections")
		pipeline = flag.Int("pipeline", 8, "requests in flight per connection")
		ops      = flag.Uint64("ops", 0, "total operation budget (0: run for -duration)")
		duration = flag.Duration("duration", 3*time.Second, "run length when -ops is 0")
		qps      = flag.Float64("qps", 0, "target rate for open-loop mode (0: closed loop)")
		keys     = flag.Int64("keys", 65536, "key-space size")
		theta    = flag.Float64("theta", 0, "zipf skew (0: workload default)")
		getPct   = flag.Int("get-pct", 0, "get share of the mix in percent (0: workload default 50/30/20)")
		setPct   = flag.Int("set-pct", 0, "set share of the mix in percent")
		delPct   = flag.Int("del-pct", 0, "delete share of the mix in percent")
		seed     = flag.Uint64("seed", 1, "workload seed")
		fill     = flag.Bool("fill", true, "set the key after a get miss (read-through fill)")
		exptime  = flag.Int64("exptime", 0, "exptime on every set: <=30d relative TTL seconds, larger is absolute unix time, 0 no expiry")
		multiget = flag.Int("multiget", 0, "group up to N consecutive gets into one multi-key get (<=1 disables)")
		sizes    = flag.String("value-sizes", "", "comma-separated object sizes in bytes (default 512,1024,4096,8192,16384)")
		weights  = flag.String("value-weights", "", "comma-separated weights matching -value-sizes")
		valdist  = flag.String("valdist", "", "continuous value-size distribution, e.g. pareto:1.2:4096:1048576 (alpha:min:max bytes); overrides -value-sizes")
		jsonDir  = flag.String("json", "", "write a BENCH_serve.json report into this directory")
		progress = flag.Duration("progress", 0, "print a one-line readout (ops/s, p50/p99) every interval and record the per-interval timeline in the -json report (0 disables)")
		gogc     = flag.Int("gogc", 400, "GC target percentage (SetGCPercent); 0 leaves the runtime default")
	)
	flag.Parse()

	if *gogc > 0 {
		// The generator's steady-state allocation rate is low (interned
		// keys, reused buffers); a high GC target keeps collection cycles
		// from perturbing the latency measurement.
		debug.SetGCPercent(*gogc)
	}

	valueSizes, err := parseInts(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -value-sizes: %v\n", err)
		os.Exit(1)
	}
	valueWeights, err := parseInts(*weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -value-weights: %v\n", err)
		os.Exit(1)
	}
	valueDist, err := workload.ParseSizeDist(*valdist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -valdist: %v\n", err)
		os.Exit(1)
	}

	res, err := server.Run(server.LoadConfig{
		Addr:         *addr,
		Conns:        *conns,
		Pipeline:     *pipeline,
		Ops:          *ops,
		Duration:     *duration,
		TargetQPS:    *qps,
		Keys:         *keys,
		Theta:        *theta,
		GetPct:       *getPct,
		SetPct:       *setPct,
		DelPct:       *delPct,
		ValueSizes:   valueSizes,
		ValueWeights: valueWeights,
		ValueDist:    valueDist,
		Seed:         *seed,
		FillOnMiss:   *fill,
		Exptime:      *exptime,
		Multiget:     *multiget,
		Progress:     *progress,
		ProgressW:    os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mode=%s conns=%d pipeline=%d", res.Mode, res.Conns, res.Pipeline)
	if res.TargetQPS > 0 {
		fmt.Printf(" target=%.0f/s", res.TargetQPS)
	}
	fmt.Printf("\nops=%d (get=%d set=%d del=%d fill=%d) errors=%d\n",
		res.Ops, res.Gets, res.Sets, res.Deletes, res.Fills, res.Errors)
	fmt.Printf("achieved %.0f ops/s over %v, hit ratio %.4f\n",
		res.AchievedQPS, res.Elapsed.Round(time.Millisecond), res.HitRatio)
	fmt.Printf("latency p50=%v p90=%v p99=%v p999=%v mean=%v max=%v\n",
		res.P50, res.P90, res.P99, res.P999, res.Mean, res.Max)
	if res.Multiget > 1 && len(res.GetBatchSizes) > 0 {
		fmt.Printf("get batch sizes (multiget=%d):", res.Multiget)
		for n := 1; n <= res.Multiget; n++ {
			if c, ok := res.GetBatchSizes[n]; ok {
				fmt.Printf(" %d×%d", n, c)
			}
		}
		fmt.Println()
	}
	if len(res.ValueSizeBuckets) > 0 {
		buckets := make([]int, 0, len(res.ValueSizeBuckets))
		for b := range res.ValueSizeBuckets {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		fmt.Printf("set value sizes (pow2 buckets):")
		for _, b := range buckets {
			fmt.Printf(" ≤%s×%d", sizeLabel(b), res.ValueSizeBuckets[b])
		}
		fmt.Println()
	}

	if *jsonDir != "" {
		rep := &harness.Report{Experiment: "serve", Serve: []server.LoadResult{*res}}
		path, err := rep.WriteFile(*jsonDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if res.Errors > 0 {
		os.Exit(2)
	}
}

// sizeLabel renders a power-of-two byte count compactly (4096 -> "4K").
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.Itoa(n>>20) + "M"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.Itoa(n>>10) + "K"
	default:
		return strconv.Itoa(n)
	}
}

// parseInts splits a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
