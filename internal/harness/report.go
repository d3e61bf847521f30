package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// fmtDur renders a duration with millisecond-class precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// PrintFig2 renders the Figure 2 comparison.
func PrintFig2(w io.Writer, rows []SchemeResult) {
	fmt.Fprintln(w, "Figure 2 — overall comparison (CacheBench bc mix)")
	fmt.Fprintf(w, "%-14s %12s %10s %8s %10s %10s\n",
		"scheme", "ops/sec", "hit-ratio", "WAF", "get-p50", "get-p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.0f %9.2f%% %8.2f %10s %10s\n",
			r.Scheme, r.OpsPerSec, r.HitRatio*100, r.WAFactor,
			fmtDur(r.GetP50), fmtDur(r.GetP99))
	}
}

// PrintFig3 renders the Figure 3 fill-time summary plus a sampled series.
func PrintFig3(w io.Writer, rows []Fig3Result) {
	fmt.Fprintln(w, "Figure 3 — region buffer fill time vs region sequence")
	for _, r := range rows {
		fmt.Fprintf(w, "\n[%s] region=%d bytes, eviction onset at seq %d\n",
			r.Label, r.RegionBytes, r.EvictionOnsetSeq)
		ratio := "n/a"
		if r.MeanBefore > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(r.MeanAfter)/float64(r.MeanBefore))
		}
		fmt.Fprintf(w, "  mean fill before onset: %s   after onset: %s (%s)\n",
			fmtDur(r.MeanBefore), fmtDur(r.MeanAfter), ratio)
		// Sample ~20 points across the series for the "plot", always keeping
		// the eviction-onset record visible.
		onset := -1
		for i, rec := range r.Records {
			if rec.Seq == r.EvictionOnsetSeq {
				onset = i
				break
			}
		}
		fmt.Fprintf(w, "  %-8s %s\n", "seq", "fill-time")
		for _, i := range fig3SampleIndices(len(r.Records), 20, onset) {
			rec := r.Records[i]
			marker := ""
			if rec.Evicted {
				marker = "  *evicting"
			}
			fmt.Fprintf(w, "  %-8d %s%s\n", rec.Seq, fmtDur(rec.Duration), marker)
		}
	}
}

// fig3SampleIndices picks ~maxPoints indices striding evenly across n
// records, plus index must when 0 ≤ must < n — the stride alone can step
// over the eviction-onset record, which is the one point Figure 3 is about.
// The result is ascending with no duplicates.
func fig3SampleIndices(n, maxPoints, must int) []int {
	if n <= 0 {
		return nil
	}
	if maxPoints < 1 {
		maxPoints = 1
	}
	step := n/maxPoints + 1
	out := make([]int, 0, maxPoints+2)
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	if must >= 0 && must < n {
		pos := sort.SearchInts(out, must)
		if pos == len(out) || out[pos] != must {
			out = append(out, 0)
			copy(out[pos+1:], out[pos:])
			out[pos] = must
		}
	}
	return out
}

// PrintFig4Table1 renders the OP sweep and the Table 1 WA factors.
func PrintFig4Table1(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4 — throughput and hit ratio under OP ratios")
	fmt.Fprintf(w, "%-14s %6s %12s %10s\n", "scheme", "OP", "ops/sec", "hit-ratio")
	for _, r := range rows {
		op := "none"
		if r.OPRatio > 0 {
			op = fmt.Sprintf("%.0f%%", r.OPRatio*100)
		}
		fmt.Fprintf(w, "%-14s %6s %12.0f %9.2f%%\n",
			r.Scheme, op, r.Result.OpsPerSec, r.Result.HitRatio*100)
	}
	fmt.Fprintln(w, "\nTable 1 — WA factor under OP ratios")
	fmt.Fprintf(w, "%-14s %6s %8s\n", "scheme", "OP", "WAF")
	for _, r := range rows {
		op := "0%"
		if r.OPRatio > 0 {
			op = fmt.Sprintf("%.0f%%", r.OPRatio*100)
		}
		fmt.Fprintf(w, "%-14s %6s %8.2f\n", r.Scheme, op, r.Result.WAFactor)
	}
}

// PrintFig5 renders the RocksDB end-to-end comparison.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5 — RocksDB with each scheme as secondary cache")
	fmt.Fprintf(w, "%-14s %5s %12s %10s %10s %10s\n",
		"scheme", "ER", "ops/sec", "hit-ratio", "P50", "P99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5.0f %12.0f %9.2f%% %10s %10s\n",
			r.Scheme, r.ER, r.OpsPerSec, r.SecondaryHitRatio*100,
			fmtDur(r.P50), fmtDur(r.P99))
	}
}

// PrintTable2 renders the Zone-Cache size sweep.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2 — Zone-Cache cache-size sweep (readrandom, ER 25)")
	fmt.Fprintf(w, "%-12s %12s %10s\n", "cache(zones)", "ops/sec", "hit-ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %12.0f %9.2f%%\n", r.Zones, r.OpsPerSec, r.HitRatio*100)
	}
}

// PrintContracts renders the unwritten-contracts zone-resource sweep.
func PrintContracts(w io.Writer, rows []ContractsRow) {
	fmt.Fprintln(w, "Unwritten contracts — zone-resource limits (open/active) vs each scheme")
	fmt.Fprintf(w, "%-14s %5s %7s %12s %10s %6s %10s %8s %8s\n",
		"scheme", "open", "active", "ops/sec", "hit-ratio", "WAF", "set-p99", "stalls", "finishes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %7d %12.0f %9.2f%% %6.2f %10s %8d %8d\n",
			r.Scheme, r.MaxOpen, r.MaxActive, r.Result.OpsPerSec,
			r.Result.HitRatio*100, r.Result.WAFactor, fmtDur(r.Result.SetP99),
			r.BudgetStalls, r.ZoneFinishes)
	}
}

// PrintSmallZone renders the small-zone hypothesis sweep.
func PrintSmallZone(w io.Writer, rows []SmallZoneRow) {
	fmt.Fprintln(w, "Small-zone hypothesis (§3.2/§4.2) — Zone-Cache vs zone size")
	fmt.Fprintf(w, "%-26s %12s %10s %12s\n", "configuration", "ops/sec", "hit-ratio", "set-p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %12.0f %9.2f%% %12s\n",
			r.Label, r.Result.OpsPerSec, r.Result.HitRatio*100, fmtDur(r.Result.SetP99))
	}
}

// ReportSchema identifies the layout of the machine-readable documents the
// bench binaries emit next to their text output. Bump the version when a
// field changes meaning; adding fields is compatible.
const ReportSchema = "znscache/bench-report/v1"

// Report is one experiment's machine-readable result. Exactly one section is
// populated, selected by Experiment. The sections hold the experiments' own
// row types, whose json tags are the wire schema. Durations encode as int64
// nanoseconds (keys suffixed _ns) so documents round-trip exactly through
// JSON — float64 seconds would not — and schemes by their paper names.
type Report struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Fig2       []SchemeResult `json:"fig2,omitempty"`
	Fig3       []Fig3Result   `json:"fig3,omitempty"`
	Fig4Table1 []Fig4Row      `json:"fig4_table1,omitempty"`
	Fig5       []Fig5Row      `json:"fig5,omitempty"`
	Table2     []Table2Row    `json:"table2,omitempty"`
	SmallZone  []SmallZoneRow `json:"smallzone,omitempty"`
	Admission  []AdmissionRow `json:"admission,omitempty"`
	Serve      []ServeRowJSON `json:"serve,omitempty"`
	Contracts  []ContractsRow `json:"contracts,omitempty"`
	CDN        []CDNRow       `json:"cdn,omitempty"`
}

// ServeRowJSON is one serving-benchmark run (cmd/loadgen against
// cmd/cacheserver) in wire form. Latencies are wall-clock request times
// measured at the client; hit_ratio is hits over get lookups.
type ServeRowJSON struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Conns       int     `json:"conns"`
	Pipeline    int     `json:"pipeline"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	AchievedQPS float64 `json:"achieved_qps"`
	Ops         uint64  `json:"ops"`
	Gets        uint64  `json:"gets"`
	Sets        uint64  `json:"sets"`
	Deletes     uint64  `json:"deletes"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Fills       uint64  `json:"fills"`
	Errors      uint64  `json:"errors"`
	HitRatio    float64 `json:"hit_ratio"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	P50Ns       int64   `json:"p50_ns"`
	P90Ns       int64   `json:"p90_ns"`
	P99Ns       int64   `json:"p99_ns"`
	P999Ns      int64   `json:"p999_ns"`
	MeanNs      int64   `json:"mean_ns"`
	MaxNs       int64   `json:"max_ns"`
	// Multiget is the loadgen's get-grouping width (absent when grouping was
	// off); GetBatchSizes counts issued get commands by key count, so the
	// report shows the batch-size distribution the server actually saw.
	Multiget      int            `json:"multiget,omitempty"`
	GetBatchSizes map[int]uint64 `json:"get_batch_sizes,omitempty"`
	// ValueSizeBuckets histograms acknowledged set payload sizes into
	// power-of-two buckets (key = bucket upper bound in bytes); the size
	// mix the server actually stored, which matters under a heavy-tailed
	// -valdist.
	ValueSizeBuckets map[int]uint64 `json:"value_size_buckets,omitempty"`
	// Timeline is the per-interval latency series captured when the loadgen
	// ran with progress sampling on (absent otherwise). Intervals are
	// disjoint; percentiles are interval-local.
	Timeline []ServeIntervalJSON `json:"timeline,omitempty"`
}

// ServeIntervalJSON is one loadgen progress interval in wire form.
type ServeIntervalJSON struct {
	TNs   int64   `json:"t_ns"` // interval end, from run start
	Ops   uint64  `json:"ops"`  // requests completed in the interval
	QPS   float64 `json:"qps"`
	P50Ns int64   `json:"p50_ns"`
	P99Ns int64   `json:"p99_ns"`
}

// NewFig2Report wraps Figure 2 rows as a Report.
func NewFig2Report(rows []SchemeResult) *Report {
	return &Report{Schema: ReportSchema, Experiment: "fig2", Fig2: rows}
}

// NewFig3Report wraps Figure 3 rows as a Report.
func NewFig3Report(rows []Fig3Result) *Report {
	return &Report{Schema: ReportSchema, Experiment: "fig3", Fig3: rows}
}

// NewFig4Table1Report wraps the OP sweep (Figure 4 + Table 1) as a Report.
func NewFig4Table1Report(rows []Fig4Row) *Report {
	return &Report{Schema: ReportSchema, Experiment: "fig4_table1", Fig4Table1: rows}
}

// NewFig5Report wraps Figure 5 rows as a Report.
func NewFig5Report(rows []Fig5Row) *Report {
	return &Report{Schema: ReportSchema, Experiment: "fig5", Fig5: rows}
}

// NewTable2Report wraps Table 2 rows as a Report.
func NewTable2Report(rows []Table2Row) *Report {
	return &Report{Schema: ReportSchema, Experiment: "table2", Table2: rows}
}

// NewSmallZoneReport wraps the small-zone sweep as a Report.
func NewSmallZoneReport(rows []SmallZoneRow) *Report {
	return &Report{Schema: ReportSchema, Experiment: "smallzone", SmallZone: rows}
}

// NewAdmissionReport wraps admission sweep rows as a Report.
func NewAdmissionReport(rows []AdmissionRow) *Report {
	return &Report{Schema: ReportSchema, Experiment: "admission", Admission: rows}
}

// NewServeReport wraps serving-benchmark rows as a Report.
func NewServeReport(rows []ServeRowJSON) *Report {
	return &Report{Schema: ReportSchema, Experiment: "serve", Serve: rows}
}

// NewContractsReport wraps the unwritten-contracts sweep as a Report.
func NewContractsReport(rows []ContractsRow) *Report {
	return &Report{Schema: ReportSchema, Experiment: "contracts", Contracts: rows}
}

// NewCDNReport wraps CDN sweep rows as a Report.
func NewCDNReport(rows []CDNRow) *Report {
	return &Report{Schema: ReportSchema, Experiment: "cdn", CDN: rows}
}

// PrintCDN renders the CDN sweep.
func PrintCDN(w io.Writer, rows []CDNRow) {
	fmt.Fprintln(w, "CDN large-object sweep — chunk size × scheme (bigobj over each engine)")
	fmt.Fprintf(w, "%-13s %9s %10s %9s %7s %7s %8s %9s %9s %8s %7s\n",
		"scheme", "chunkKiB", "ops/sec", "hit-ratio", "fills", "partial", "repairs", "servedMB", "filledMB", "pinned", "WA")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %9d %10.0f %8.2f%% %7d %7d %8d %9.1f %9.1f %8d %7.2f\n",
			r.Scheme, r.ChunkBytes>>10, r.OpsPerSec, r.ObjectHitRatio*100,
			r.Fills, r.PartialMisses, r.ManifestRepairs,
			float64(r.ServedBytes)/(1<<20), float64(r.FillBytes)/(1<<20),
			r.EvictionsDeferred, r.WAFactor)
	}
}

// Validate checks the document invariants: the schema tag matches, the
// experiment is named, and the named experiment's section is the one that is
// populated.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("harness: report schema %q, want %q", r.Schema, ReportSchema)
	}
	sections := map[string]bool{
		"fig2":        r.Fig2 != nil,
		"fig3":        r.Fig3 != nil,
		"fig4_table1": r.Fig4Table1 != nil,
		"fig5":        r.Fig5 != nil,
		"table2":      r.Table2 != nil,
		"smallzone":   r.SmallZone != nil,
		"admission":   r.Admission != nil,
		"serve":       r.Serve != nil,
		"contracts":   r.Contracts != nil,
		"cdn":         r.CDN != nil,
	}
	populated, known := sections[r.Experiment]
	if !known {
		return fmt.Errorf("harness: report names unknown experiment %q", r.Experiment)
	}
	if !populated {
		return fmt.Errorf("harness: report for %q has no %q section", r.Experiment, r.Experiment)
	}
	for name, has := range sections {
		if has && name != r.Experiment {
			return fmt.Errorf("harness: report for %q also carries section %q", r.Experiment, name)
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteFile writes the report to dir/BENCH_<experiment>.json and returns the
// path.
func (r *Report) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, "BENCH_"+r.Experiment+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("harness: report file: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close() //nolint:errcheck
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("harness: report file: %w", err)
	}
	return path, nil
}

// ParseReport decodes and validates a report document.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("harness: parse report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
