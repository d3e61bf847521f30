package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Live terminal dashboard: poll a /metrics endpoint and render the serving
// headlines in place — ops/s, hit ratio, per-stage latency p50/p99, open
// zones, GC activity, SLO burn. Reached via `cacheserver -top` or
// `zonectl -top ADDR`; the renderer is pure (snapshot pair in, text out) so
// tests drive it without a server.

// PromSample is one parsed series sample from a Prometheus text exposition.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromSnapshot is one scrape, indexed for the lookups the dashboard does.
type PromSnapshot struct {
	At      time.Time
	Samples []PromSample
}

// ParsePromText parses a Prometheus text-format exposition. Comment and
// blank lines are skipped; malformed lines are an error so the dashboard
// fails loudly on a non-metrics endpoint rather than rendering zeros.
func ParsePromText(r io.Reader) (*PromSnapshot, error) {
	snap := &PromSnapshot{At: time.Now()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		snap.Samples = append(snap.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("obs: bad metrics line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("obs: bad metrics line %q", line)
		}
		s.Labels = map[string]string{}
		for _, pair := range splitLabelPairs(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return s, fmt.Errorf("obs: bad label in %q", line)
			}
			s.Labels[k] = strings.Trim(v, `"`)
		}
		rest = rest[end+1:]
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("obs: bad value in %q", line)
	}
	s.Value = val
	return s, nil
}

// splitLabelPairs splits a,b,c at commas outside quotes. Registry label
// values never contain commas today, but quoted splitting keeps the parser
// honest against any text-format producer.
func splitLabelPairs(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inQuote = !inQuote
			}
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Value returns the first sample of name whose labels include every given
// key=value pair (pairs alternate key, value). ok is false when absent.
func (p *PromSnapshot) Value(name string, pairs ...string) (float64, bool) {
	for _, s := range p.Samples {
		if s.Name != name || !labelsMatch(s.Labels, pairs) {
			continue
		}
		return s.Value, true
	}
	return 0, false
}

// Sum adds every matching sample — e.g. server_ops_total across verbs.
func (p *PromSnapshot) Sum(name string, pairs ...string) float64 {
	var sum float64
	for _, s := range p.Samples {
		if s.Name == name && labelsMatch(s.Labels, pairs) {
			sum += s.Value
		}
	}
	return sum
}

func labelsMatch(ls map[string]string, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if ls[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// TopConfig parameterizes RunTop.
type TopConfig struct {
	// URL is the full metrics URL, e.g. "http://127.0.0.1:9090/metrics".
	URL string
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// Out receives the rendered frames (default os.Stdout via caller).
	Out io.Writer
	// Frames stops after this many rendered frames; 0 runs until Stop.
	Frames int
	// Stop ends the loop when closed (may be nil).
	Stop <-chan struct{}
	// Plain disables the in-place ANSI redraw (frames append instead) —
	// for logs and tests.
	Plain bool
}

// RunTop polls cfg.URL and renders the dashboard until Stop closes, Frames
// frames have rendered, or a scrape fails twice in a row.
func RunTop(cfg TopConfig) error {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	client := &http.Client{Timeout: cfg.Interval}
	var prev *PromSnapshot
	frames, failures := 0, 0
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		cur, err := scrape(client, cfg.URL)
		if err != nil {
			failures++
			if failures >= 2 {
				return fmt.Errorf("obs: top: %w", err)
			}
		} else {
			failures = 0
			if !cfg.Plain {
				// Home the cursor and clear below; redraw in place.
				fmt.Fprint(cfg.Out, "\x1b[H\x1b[2J")
			}
			RenderTop(cfg.Out, cfg.URL, prev, cur)
			prev = cur
			frames++
			if cfg.Frames > 0 && frames >= cfg.Frames {
				return nil
			}
		}
		select {
		case <-cfg.Stop:
			return nil
		case <-tick.C:
		}
	}
}

func scrape(client *http.Client, url string) (*PromSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return ParsePromText(resp.Body)
}

// RenderTop writes one dashboard frame. prev may be nil (first frame; rates
// render as "-"). The layout is fixed-width so in-place redraw is stable.
func RenderTop(w io.Writer, url string, prev, cur *PromSnapshot) {
	fmt.Fprintf(w, "znscache top · %s · %s\n\n", url, cur.At.Format("15:04:05"))

	// Serving headline: ops/s and interval hit ratio from counter deltas.
	opsRate, hitRatio := "-", "-"
	if prev != nil {
		dt := cur.At.Sub(prev.At).Seconds()
		if dt > 0 {
			dOps := cur.Sum("server_ops_total") - prev.Sum("server_ops_total")
			opsRate = fmt.Sprintf("%.0f", dOps/dt)
			dHit := cur.Sum("server_get_hits_total") - prev.Sum("server_get_hits_total")
			dMiss := cur.Sum("server_get_misses_total") - prev.Sum("server_get_misses_total")
			if dHit+dMiss > 0 {
				hitRatio = fmt.Sprintf("%.3f", dHit/(dHit+dMiss))
			}
		}
	}
	if hitRatio == "-" {
		if v, ok := cur.Value("cache_lookup_ratio"); ok {
			hitRatio = fmt.Sprintf("%.3f", v)
		}
	}
	conns, _ := cur.Value("server_connections_open")
	fmt.Fprintf(w, "  ops/s %-10s hit %-7s conns %-5.0f\n\n", opsRate, hitRatio, conns)

	// Stage latencies: the registry exports histograms as quantile series.
	renderStages(w, cur, "server_stage_latency", "server stages",
		[]string{"sock_read", "parse", "queue_wait", "exec", "flush"})
	renderStages(w, cur, "cache_stage_latency", "cache stages",
		[]string{"fast_get", "locked_get", "set_publish", "region_flush", "store_io"})

	// Device/GC panel.
	openZones, hasZones := cur.Value("zns_open_zones")
	gcRuns := cur.Sum("middle_gc_runs_total")
	if hasZones || gcRuns > 0 {
		gcRate := "-"
		if prev != nil {
			dt := cur.At.Sub(prev.At).Seconds()
			if dt > 0 {
				gcRate = fmt.Sprintf("%.2f/s", (gcRuns-prev.Sum("middle_gc_runs_total"))/dt)
			}
		}
		fmt.Fprintf(w, "  zones open %-4.0f resets %-8.0f gc runs %-6.0f (%s) migrated %-6.0f dropped %.0f\n\n",
			openZones, cur.Sum("zns_zone_resets_total"), gcRuns, gcRate,
			cur.Sum("middle_gc_migrated_regions_total"), cur.Sum("middle_gc_dropped_regions_total"))
	}

	// SLO burn per verb.
	verbs := map[string]bool{}
	for _, s := range cur.Samples {
		if s.Name == "slo_burn_rate" {
			verbs[s.Labels["verb"]] = true
		}
	}
	if len(verbs) > 0 {
		names := make([]string, 0, len(verbs))
		for v := range verbs {
			names = append(names, v)
		}
		sort.Strings(names)
		fmt.Fprint(w, "  slo burn ")
		for _, v := range names {
			b, _ := cur.Value("slo_burn_rate", "verb", v)
			fmt.Fprintf(w, " %s %-7.2f", v, b)
		}
		fmt.Fprintf(w, " captures %.0f\n\n", cur.Sum("slo_profile_captures_total"))
	}

	// Go runtime.
	if g, ok := cur.Value("go_goroutines"); ok {
		heap, _ := cur.Value("go_heap_objects_bytes")
		pause, _ := cur.Value("go_gc_pause_seconds", "quantile", "0.99")
		fmt.Fprintf(w, "  go: goroutines %-5.0f heap %-8s gc p99 pause %s\n",
			g, fmtBytes(heap), fmtSeconds(pause))
	}
}

// renderStages prints one p50/p99 row per stage that has samples.
func renderStages(w io.Writer, snap *PromSnapshot, series, title string, stages []string) {
	var rows []string
	for _, st := range stages {
		n, _ := snap.Value(series+"_count", "stage", st)
		if n == 0 {
			continue
		}
		p50, _ := snap.Value(series, "stage", st, "quantile", "0.5")
		p99, _ := snap.Value(series, "stage", st, "quantile", "0.99")
		rows = append(rows, fmt.Sprintf("%-12s %8s %8s %10.0f", st, fmtSeconds(p50), fmtSeconds(p99), n))
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %8s %8s %10s\n", title, "p50", "p99", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	fmt.Fprintln(w)
}

func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
