// Command cacheserver serves a sharded znscache over the memcached text
// protocol. It is the network face of the simulation: any memcached client
// (or cmd/loadgen) can drive the paper's cache designs over TCP, with
// metrics, request-stage spans, a slow-request exemplar log, and a graceful
// shutdown that persists the cache snapshot before exit.
//
// Shutdown ordering matters: on SIGINT/SIGTERM the server first drains
// in-flight connections (server.Shutdown), and only then Closes the cache so
// the snapshot covers every request that received a response.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"znscache"
	"znscache/internal/harness"
	"znscache/internal/obs"
	"znscache/internal/server"
)

// options collects the flag values run needs.
type options struct {
	addr        string
	scheme      string
	shards      int
	zones       int
	cacheMiB    int64
	regionKiB   int64
	admission   string
	admitBudget float64
	maxConns    int
	maxValue    int
	idle        time.Duration
	drain       time.Duration
	metricsAddr string
	slowMs      int
	fastReads   bool
	spanEvery   int
	slowlogFile string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:11211", "listen address for the memcached protocol")
	flag.StringVar(&o.scheme, "scheme", "region", "cache backend: block|file|zone|region")
	flag.IntVar(&o.shards, "shards", 4, "independent cache engines (key-hash partitioned)")
	flag.IntVar(&o.zones, "zones", 64, "simulated device zone count (split across shards)")
	flag.Int64Var(&o.cacheMiB, "cache-mib", 0, "cache capacity in MiB (default 80% of the device)")
	flag.Int64Var(&o.regionKiB, "region-kib", 0, "region size in KiB for block/file/region schemes (default scheme-specific); raise it so large values fit a region")
	flag.StringVar(&o.admission, "admission", "", "admission policy: all|prob:P|reject-first[:BITS,WINDOW]|dynamic-random[:WINDOW_MS]|frequency[:THRESHOLD]")
	flag.Float64Var(&o.admitBudget, "admit-budget", 0, "device-write budget in bytes/simulated-second (for dynamic-random)")
	flag.IntVar(&o.maxConns, "max-conns", 1024, "connection limit; excess connections wait in the accept queue")
	flag.IntVar(&o.maxValue, "max-value", 1<<20, "largest accepted value in bytes")
	flag.DurationVar(&o.idle, "idle", 5*time.Minute, "idle connection timeout")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain deadline")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address")
	flag.IntVar(&o.slowMs, "slow-ms", 50, "slow-request threshold in milliseconds (server_slow_requests_total and the -span exemplar log)")
	flag.BoolVar(&o.fastReads, "fast-reads", true, "serve gets from the lock-free read index")
	flag.IntVar(&o.spanEvery, "span", 0, "request-stage spans: observe 1 in N batches into per-stage histograms (0 disables spans entirely)")
	flag.StringVar(&o.slowlogFile, "slowlog", "", "write the slow-request exemplar log (stage breakdowns) as JSON to this file on exit; requires -span")
	lockProf := flag.Int("lock-profile", 0, "runtime mutex/block profiling rate for -metrics-addr pprof (0 disables)")
	gogc := flag.Int("gogc", 400, "GC target percentage (SetGCPercent); 0 leaves the runtime default")
	flag.Parse()

	if *gogc > 0 {
		// A cache server's live heap is dominated by its fixed-size region
		// buffers and index, so a high GC target trades bounded memory
		// headroom for materially fewer collection cycles on the hot path.
		debug.SetGCPercent(*gogc)
	}
	if *lockProf > 0 {
		obs.SetLockProfiling(*lockProf)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "cacheserver: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	s, err := harness.ParseScheme(o.scheme)
	if err != nil {
		return err
	}

	// The registry exists before the cache is built and is installed as the
	// harness's global hook, so every layer of every shard's rig (cache_*,
	// zns_*, middle_*, ...) registers at Build time and /metrics exposes the
	// device and GC series, not just the server_* ones.
	reg := obs.NewRegistry()
	harness.SetMetricsRegistry(reg)
	defer harness.SetMetricsRegistry(nil)

	// Request-stage spans: one recorder shared by the serving path (batch
	// spans) and every shard engine (cache-stage observations).
	var spans *obs.SpanRecorder
	if o.spanEvery > 0 {
		spans = obs.NewSpanRecorder(obs.SpanConfig{
			SampleEvery:   o.spanEvery,
			SlowThreshold: time.Duration(o.slowMs) * time.Millisecond,
		})
	} else if o.slowlogFile != "" {
		return fmt.Errorf("-slowlog needs -span enabled")
	}

	cfg := znscache.ShardedConfig{
		Config: znscache.Config{
			Scheme:      s,
			Zones:       o.zones,
			CacheBytes:  o.cacheMiB << 20,
			RegionBytes: o.regionKiB << 10,
			TrackValues: true,        // the server returns real payloads
			FastReads:   o.fastReads, // lock-free get path for the serving layer
			Spans:       spans,
		},
		Shards: o.shards,
	}
	if o.admission != "" {
		f, err := znscache.ParseAdmission(o.admission, o.admitBudget)
		if err != nil {
			return err
		}
		cfg.Admission = f
	}
	c, err := znscache.OpenSharded(cfg)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Addr:          o.addr,
		Backend:       c,
		MaxConns:      o.maxConns,
		MaxValueBytes: o.maxValue,
		IdleTimeout:   o.idle,
		SlowThreshold: time.Duration(o.slowMs) * time.Millisecond,
		Spans:         spans,
		StatsExtra: func() map[string]string {
			st := c.Stats()
			return map[string]string{
				"cache_scheme":    st.Scheme.String(),
				"cache_items":     fmt.Sprintf("%d", st.Items),
				"cache_hit_ratio": fmt.Sprintf("%.4f", st.HitRatio),
				"cache_evictions": fmt.Sprintf("%d", st.Evictions),
				"cache_wa_factor": fmt.Sprintf("%.3f", st.WriteAmplification),
			}
		},
	})
	if err != nil {
		return err
	}

	srv.MetricsInto(reg, obs.L("job", "cacheserver"))
	obs.LockMetricsInto(reg, obs.L("job", "cacheserver"))
	if o.metricsAddr != "" {
		ms, err := obs.StartServer(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", ms.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	fmt.Fprintf(os.Stderr, "serving %s/%d-shard cache on %s\n", o.scheme, o.shards, srv.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "caught %v, draining (deadline %v)\n", sig, o.drain)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	// Drain in-flight connections first, then snapshot: the snapshot must
	// cover everything a client got a response for.
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v (snapshotting anyway)\n", err)
	}
	if err := c.Close(); err != nil {
		return fmt.Errorf("cache close: %w", err)
	}
	fmt.Fprintf(os.Stderr, "cache snapshot persisted (%d shards)\n", len(c.Snapshots()))

	if o.slowlogFile != "" {
		if err := writeSlowLog(o.slowlogFile, spans); err != nil {
			return fmt.Errorf("slowlog: %w", err)
		}
	}
	return nil
}

// writeSlowLog dumps the slow-request exemplar ring as JSON.
func writeSlowLog(path string, rec *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteSlowLog(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d slow exemplars retained, %d total)\n",
		path, len(rec.SlowRequests()), rec.SlowTotal())
	return nil
}
