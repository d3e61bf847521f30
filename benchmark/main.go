// Command benchmark is the repository's performance benchmark: four
// workloads, every figure labelled with the clock it was read on (host wall
// / host CPU / simulated device), measured from outside the program through
// its public functions, the interfaces it is handed, and the counters on its
// rig handles. See README.md in this directory.
//
//	go run ./benchmark -workload serve_get_hot -seed 1 -seconds 15 -trace 0
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. -trace 0 reports the
// end-to-end metrics, -trace 1 the per-layer ones (from a traced run, whose
// spans go to benchmark/out/trace_<workload>.json). -aa N runs the A/A
// procedure, -check the determinism check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// gcPercent is cacheserver's -gogc default; the benchmark pins it, and both
// vCPUs, so the figures do not depend on the caller's environment.
const (
	gcPercent = 400
	maxProcs  = 2
)

// sizing is what scales with the run: the window length and the simulated
// hardware. The go test in this directory shrinks it; the command line only
// sets seconds.
type sizing struct {
	seconds     float64
	turnovers   float64 // cache turn-overs of warm-up before a window opens
	schemeZones int     // replay_schemes device, per scheme
	cdnZones    int     // replay_cdn device
	hotZones    int     // serve_get_hot device, split over 4 shards
	hotKeys     int64
	churnZones  int // serve_churn_open device, split over 4 shards
	churnRate   float64
}

func fullSize(seconds float64) sizing {
	return sizing{
		seconds:     seconds,
		turnovers:   2,
		schemeZones: 32,
		cdnZones:    24,
		hotZones:    64,
		hotKeys:     1_000_000,
		churnZones:  32,
		churnRate:   30_000,
	}
}

// bench is one of the four benchmark workloads. setup builds the rigs and
// fills them (timed by the caller as setup_s); run measures one window;
// layers adds the per-layer metrics only this workload can supply.
type bench interface {
	setup(seed uint64, tr *tracer) error
	run(seconds float64, tr *tracer) (*window, error)
	layers(w *window, m map[string]float64)
	close()
}

var workloadNames = []string{"serve_get_hot", "serve_churn_open", "replay_schemes", "replay_cdn"}

func newWorkload(name string, sz sizing) (bench, error) {
	switch name {
	case "serve_get_hot":
		return newServeGetHot(sz), nil
	case "serve_churn_open":
		return newServeChurnOpen(sz), nil
	case "replay_schemes":
		return &replaySchemes{sz: sz}, nil
	case "replay_cdn":
		return &replayCDN{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, " | ")+" (-aa, -check: empty = all)")
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same generated operations")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", "benchmark/out", "directory for trace_<workload>.json and run_<workload>.json")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of N child runs per workload, print medians, quartiles and gaps")
	check := flag.Bool("check", false, "determinism check: replay_* twice with -seed and once with another; simulated results must repeat exactly and differ across seeds")
	flag.Parse()

	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(maxProcs)

	var err error
	switch {
	case *aa > 0:
		err = runAA(*name, *aa, *seconds, os.Stdout)
	case *check:
		err = runCheck(*name, *seed, fullSize(*seconds), os.Stdout)
	default:
		var rep *report
		if rep, err = runOne(*name, *seed, fullSize(*seconds), *trace != 0, *out); err == nil {
			rep.print(os.Stdout)
			if werr := rep.write(*out); werr != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", werr)
			}
			if !rep.Correct || rep.Failed > 0 {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the benchmark contract: the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]jsMetric `json:"metrics"`
}

type jsMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a result plus what a reader needs to interpret it.
type report struct {
	result
	Env       map[string]any `json:"env"`
	Disturbed bool           `json:"disturbed"` // the two calibrations differ by > 5 %
	Samples   int            `json:"latency_samples"`
	Violation string         `json:"violation,omitempty"`

	defs []metricDef
}

// environment describes where and how the run was made.
func environment(name string, seed uint64, sz sizing, traced bool) map[string]any {
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    sz.seconds,
		"traced":     traced,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gcPercent,
		"nproc":      runtime.NumCPU(),
		"cpu":        "unknown",
		"git_sha":    "unknown",
	}
	if traced {
		env["window_s"] = []float64{sz.seconds / 3, sz.seconds / 3}
	} else {
		env["window_s"] = []float64{sz.seconds}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["git_sha"] = s.Value
			}
		}
	}
	return env
}

// runOne runs one workload once: calibrate, set up, measure, check.
func runOne(name string, seed uint64, sz sizing, traced bool, outDir string) (*report, error) {
	wl, err := newWorkload(name, sz)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	rep := &report{Env: environment(name, seed, sz, traced), defs: endToEnd}
	rep.Correct = true
	m := map[string]float64{}
	calib0 := calibrate()

	var tr *tracer
	if traced {
		tr = newTracer()
		rep.defs = perLayer
		// Probes first, on a fresh heap: after a workload their prices
		// would include collecting and re-faulting its gigabytes.
		if err := runProbes(m); err != nil {
			return nil, err
		}
		settle()
	}
	t0 := time.Now()
	if err := wl.setup(seed, tr); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	m["setup_s"] = time.Since(t0).Seconds()

	var w *window
	if !traced {
		if w, err = wl.run(sz.seconds, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w.endToEnd(m)
	} else {
		// Two windows of a third of the length on the same decorated
		// stack: spans off, then on. Their CPU cost per op differs by
		// what tracing costs.
		off, err := wl.run(sz.seconds/3, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr.on.Store(true)
		if w, err = wl.run(sz.seconds/3, tr); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", name, err)
		}
		tr.on.Store(false)
		w.endToEnd(m)
		w.counterLayers(m)
		tr.layers(w, m)
		if sb, ok := wl.(*serveBench); ok {
			if sb.self, err = sb.selfCost(math.Max(1, sz.seconds/5)); err != nil {
				return nil, fmt.Errorf("%s: no-op backend: %w", name, err)
			}
		}
		wl.layers(w, m)
		m["trace.overhead_share"] = ratio(m["cpu_us_per_op"], ratio(us(off.host.cpu), float64(off.ops))) - 1
		m["budget.coverage"] = coverage(w, tr, m)
		m["peak_rss_mib"] = peakRSSMiB()
		rep.Attempted, rep.Failed = off.ops, off.failed
		if err := tr.write(filepath.Join(outDir, "trace_"+name+".json"), rep.Env); err != nil {
			return nil, err
		}
	}
	rep.Attempted += w.ops
	rep.Failed += w.failed
	if err := w.check(); err != nil {
		rep.Correct, rep.Violation = false, err.Error()
	}
	rep.Samples = len(w.allLat())

	// The host is judged by the same pure-CPU loop before and after.
	calib1 := calibrate()
	m["host.calib_ns"] = math.Min(calib0, calib1)
	rep.Env["calib_ns"] = []float64{calib0, calib1}
	rep.Disturbed = math.Abs(calib1-calib0) > 0.05*math.Min(calib0, calib1)

	rep.Metrics = make(map[string]jsMetric, len(rep.defs))
	for _, d := range rep.defs {
		rep.Metrics[d.name] = jsMetric{Value: m[d.name], Unit: d.unit}
	}
	return rep, nil
}

// coverage is the bottom-up budget: what the traced window's counts cost at
// the probes' unit prices, plus the self time of the layers that have
// spans, over the CPU time the window actually used. The roadmap's "rows
// sum to 1/throughput"; how far from 1 it lands is a finding.
func coverage(w *window, tr *tracer, m map[string]float64) float64 {
	k := &tr.kinds
	c := &w.c
	ops := float64(w.ops)
	bigobjSelf := us(k[spBigPut].total+k[spBigRead].total) -
		us(k[spCacheGet].total+k[spCacheSet].total+k[spCacheDel].total)
	if k[spBigPut].n+k[spBigRead].n == 0 {
		bigobjSelf = 0
	}
	modelled := ops*(m["server.self_us_per_op"]+m["cache.self_us_per_op"]) + bigobjSelf +
		(float64(c[cNandProg])*m["probe.flash_program_ns"]+
			float64(c[cNandRead])*m["probe.flash_read_ns"]+
			float64(c[cZnsResets])*m["probe.zns_reset_ns"])/1e3
	return ratio(modelled, us(w.host.cpu))
}

// print writes the human-readable report, then the contract line.
func (r *report) print(f io.Writer) {
	fmt.Fprintf(f, "# %v seed=%v seconds=%v traced=%v\n", r.Env["workload"], r.Env["seed"], r.Env["seconds"], r.Env["traced"])
	fmt.Fprintf(f, "# %v, GOMAXPROCS=%v GOGC=%v nproc=%v, %v, git %v\n",
		r.Env["go"], r.Env["gomaxprocs"], r.Env["gogc"], r.Env["nproc"], r.Env["cpu"], r.Env["git_sha"])
	fmt.Fprintf(f, "# host.calib_ns before/after %v, disturbed=%v, latency samples %d\n", r.Env["calib_ns"], r.Disturbed, r.Samples)
	if r.Violation != "" {
		fmt.Fprintf(f, "# INVARIANT BROKEN: %s\n", r.Violation)
	}
	for _, d := range r.defs {
		fmt.Fprintf(f, "%-36s %16.4f %-6s [%s, %s is better]\n", d.name, r.Metrics[d.name].Value, d.unit, d.clock, d.better)
	}
	fmt.Fprintf(f, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	b, _ := json.Marshal(r.result) // cannot fail: plain numbers and strings
	fmt.Fprintln(f, string(b))
}

// write stores the full report beside the trace.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	suffix := ""
	if r.Env["traced"] == true {
		suffix = "_traced"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("run_%v%s.json", r.Env["workload"], suffix)), b, 0o644)
}
