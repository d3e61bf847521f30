package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"znscache/internal/cache"
)

func sampleSchemeResult(s Scheme) SchemeResult {
	return SchemeResult{
		Scheme:     s,
		OpsPerSec:  123456.5,
		HitRatio:   0.875,
		WAFactor:   1.25,
		SetP50:     90 * time.Microsecond,
		SetP99:     3 * time.Millisecond,
		GetP50:     40 * time.Microsecond,
		GetP99:     900 * time.Microsecond,
		CacheBytes: 400 << 20,
		SimTime:    17 * time.Second,
		Ops:        1_000_000,
	}
}

// sampleReports builds one document per experiment from fixed rows with a
// non-zero value in every field, so a dropped or renamed key shows up as a
// golden mismatch.
func sampleReports() map[string]*Report {
	return map[string]*Report{
		"fig2": NewFig2Report([]SchemeResult{
			sampleSchemeResult(ZoneCache), sampleSchemeResult(RegionCache),
		}),
		"fig3": NewFig3Report([]Fig3Result{{
			Label:       "Region-Cache 1 MiB",
			RegionBytes: 1 << 20,
			Records: []cache.FillRecord{
				{Seq: 41, Duration: 5 * time.Millisecond},
				{Seq: 42, Duration: 80 * time.Millisecond, Evicted: true},
			},
			EvictionOnsetSeq: 42,
			MeanBefore:       5 * time.Millisecond,
			MeanAfter:        80 * time.Millisecond,
		}}),
		"fig4_table1": NewFig4Table1Report([]Fig4Row{
			{Scheme: BlockCache, OPRatio: 0.1, Result: sampleSchemeResult(BlockCache)},
		}),
		"fig5": NewFig5Report([]Fig5Row{{
			Scheme: FileCache, ER: 25, OpsPerSec: 420.5, SecondaryHitRatio: 0.6,
			P50: time.Millisecond, P99: 40 * time.Millisecond, SimTime: time.Minute,
		}}),
		"table2": NewTable2Report([]Table2Row{
			{Zones: 5, CacheGiB: 5, OpsPerSec: 300, HitRatio: 0.55},
		}),
		"smallzone": NewSmallZoneReport([]SmallZoneRow{
			{Label: "Zone-Cache 4 MiB", ZoneMiB: 4, Result: sampleSchemeResult(ZoneCache)},
		}),
		"admission": NewAdmissionReport([]AdmissionRow{{
			Scheme: FileCache, Policy: "dynamic-random", Result: sampleSchemeResult(FileCache),
			HostWriteBytes: 300 << 20, DeviceWriteBytes: 450 << 20,
			DeviceBytesPerSec: 26.5e6, BudgetBytesPerSec: 13.25e6, AdmitRejects: 4321,
		}}),
		"serve": NewServeReport([]ServeRowJSON{{
			Mode: "open", Conns: 8, Pipeline: 16, TargetQPS: 30000, AchievedQPS: 29876.5,
			Ops: 448000, Gets: 224000, Sets: 134400, Deletes: 89600,
			Hits: 201600, Misses: 22400, Fills: 22400, Errors: 3, HitRatio: 0.9,
			ElapsedNs: int64(15 * time.Second), P50Ns: 45000, P90Ns: 90000,
			P99Ns: 310000, P999Ns: 1200000, MeanNs: 52000, MaxNs: 8000000,
			Multiget:         4,
			GetBatchSizes:    map[int]uint64{1: 100, 4: 55000},
			ValueSizeBuckets: map[int]uint64{128: 60000, 4096: 74400},
			Timeline: []ServeIntervalJSON{
				{TNs: int64(time.Second), Ops: 29000, QPS: 29000, P50Ns: 44000, P99Ns: 300000},
				{TNs: int64(2 * time.Second), Ops: 30100, QPS: 30100, P50Ns: 46000, P99Ns: 320000},
			},
		}}),
		"contracts": NewContractsReport([]ContractsRow{{
			Scheme: RegionCache, MaxOpen: 4, MaxActive: 6, Result: sampleSchemeResult(RegionCache),
			BudgetStalls: 17, ZoneFinishes: 9, StallTime: 250 * time.Millisecond,
		}}),
		"cdn": NewCDNReport([]CDNRow{{
			Scheme: ZoneCache, ChunkBytes: 128 << 10, Ops: 2500,
			SimTime: 3 * time.Second, OpsPerSec: 833.25,
			Reads: 2000, ObjectHits: 1500, Fills: 500, Deletes: 500,
			ObjectHitRatio: 0.75, ServedBytes: 900 << 20, FillBytes: 300 << 20,
			ChunkHits: 7000, ChunkMisses: 900, PartialMisses: 40,
			ManifestRepairs: 5, EvictionsDeferred: 12, WAFactor: 1.75,
		}}),
	}
}

// TestReportRoundTrip locks the wire schema byte for byte: every
// experiment's document must emit exactly testdata/report_<experiment>.json,
// and parsing that golden and emitting it again must reproduce it. The
// goldens change only with a ReportSchema version bump, by hand.
func TestReportRoundTrip(t *testing.T) {
	reports := sampleReports()
	if len(reports) != 10 {
		t.Fatalf("%d sample reports, want one per experiment (10)", len(reports))
	}
	for experiment, rep := range reports {
		if rep.Experiment != experiment {
			t.Errorf("builder for %q stamped experiment %q", experiment, rep.Experiment)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "report_"+experiment+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", experiment, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: emitted document differs from golden.\ngot:\n%s\nwant:\n%s", experiment, buf.Bytes(), golden)
		}
		parsed, err := ParseReport(golden)
		if err != nil {
			t.Fatalf("%s: ParseReport: %v", experiment, err)
		}
		buf.Reset()
		if err := parsed.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: re-emit: %v", experiment, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: parse → emit drifted from golden.\ngot:\n%s\nwant:\n%s", experiment, buf.Bytes(), golden)
		}
	}
}

func TestReportValidate(t *testing.T) {
	good := NewTable2Report([]Table2Row{{Zones: 4}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := *good
	bad.Schema = "something/else"
	if err := bad.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	bad = *good
	bad.Experiment = "fig9"
	if err := bad.Validate(); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad = *good
	bad.Table2 = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing section accepted")
	}
	bad = *good
	bad.Fig2 = []SchemeResult{{}}
	if err := bad.Validate(); err == nil {
		t.Error("extra section accepted")
	}

	// Scheme names are checked both ways: a misspelt name must not parse
	// as Region-Cache, and an out-of-range Scheme must not reach disk.
	doc := `{"schema": "` + ReportSchema + `", "experiment": "fig2",
		"fig2": [{"scheme": "Regoin-Cache"}]}`
	if _, err := ParseReport([]byte(doc)); err == nil {
		t.Error("unknown scheme name parsed")
	}
	var buf bytes.Buffer
	if err := NewFig2Report([]SchemeResult{{Scheme: Scheme(7)}}).WriteJSON(&buf); err == nil {
		t.Errorf("out-of-range scheme encoded: %s", buf.Bytes())
	}
}

// TestParseScheme: the binaries' -scheme names map to the four schemes, and
// anything else is refused with the name quoted.
func TestParseScheme(t *testing.T) {
	want := map[string]Scheme{"block": BlockCache, "file": FileCache, "zone": ZoneCache, "region": RegionCache}
	for name, s := range want {
		if got, err := ParseScheme(name); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	for _, bad := range []string{"", "Zone-Cache", "zones", "Block"} {
		if _, err := ParseScheme(bad); err == nil || err.Error() != fmt.Sprintf("unknown scheme %q", bad) {
			t.Errorf("ParseScheme(%q) err = %v", bad, err)
		}
	}
}

func TestReportWriteFile(t *testing.T) {
	dir := t.TempDir()
	rep := NewFig2Report([]SchemeResult{sampleSchemeResult(ZoneCache)})
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := filepath.Base(path), "BENCH_fig2.json"; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Fig2[0].Scheme != ZoneCache || parsed.Fig2[0].SimTime != 17*time.Second {
		t.Fatalf("parsed file content wrong: %+v", parsed.Fig2[0])
	}
	// An invalid document must not reach disk.
	broken := &Report{Schema: ReportSchema, Experiment: "fig2"}
	if _, err := broken.WriteFile(dir); err == nil {
		t.Fatal("sectionless report written without error")
	}
}

func TestFig3SampleIndices(t *testing.T) {
	cases := []struct {
		n, maxPoints, must int
	}{
		{0, 20, 0},
		{1, 20, 0},
		{19, 20, 7},
		{100, 20, 0},
		{100, 20, 57}, // onset off the stride grid must still appear
		{100, 20, 99},
		{100, 20, -1}, // no onset recorded
		{5000, 20, 4999},
		{7, 1, 3},
	}
	for _, tc := range cases {
		got := fig3SampleIndices(tc.n, tc.maxPoints, tc.must)
		if tc.n == 0 {
			if got != nil {
				t.Errorf("n=0 returned %v", got)
			}
			continue
		}
		if !sort.IntsAreSorted(got) {
			t.Errorf("n=%d must=%d: not sorted: %v", tc.n, tc.must, got)
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= tc.n {
				t.Errorf("n=%d: index %d out of range", tc.n, i)
			}
			if seen[i] {
				t.Errorf("n=%d: duplicate index %d in %v", tc.n, i, got)
			}
			seen[i] = true
		}
		if tc.must >= 0 && tc.must < tc.n && !seen[tc.must] {
			t.Errorf("n=%d: required index %d missing from %v", tc.n, tc.must, got)
		}
		if len(got) > tc.maxPoints+2 {
			t.Errorf("n=%d maxPoints=%d: %d indices sampled", tc.n, tc.maxPoints, len(got))
		}
	}
}

// TestPrintFig3IncludesOnset checks the satellite fix end to end: the
// rendered series always contains the eviction-onset record, and a run that
// never evicted prints "n/a" instead of a division by zero.
func TestPrintFig3IncludesOnset(t *testing.T) {
	records := make([]cache.FillRecord, 100)
	for i := range records {
		records[i] = cache.FillRecord{Seq: uint64(i), Duration: time.Millisecond}
	}
	records[57].Evicted = true
	records[57].Duration = 90 * time.Millisecond
	var buf bytes.Buffer
	PrintFig3(&buf, []Fig3Result{{
		Label:            "onset",
		RegionBytes:      1 << 20,
		Records:          records,
		EvictionOnsetSeq: 57,
		MeanBefore:       time.Millisecond,
		MeanAfter:        90 * time.Millisecond,
	}})
	if !strings.Contains(buf.String(), "\n  57 ") {
		t.Fatalf("onset record seq 57 missing from output:\n%s", buf.String())
	}

	buf.Reset()
	PrintFig3(&buf, []Fig3Result{{
		Label:       "no-evictions",
		RegionBytes: 1 << 20,
		Records:     records[:5],
	}})
	if !strings.Contains(buf.String(), "n/a") {
		t.Fatalf("zero MeanBefore did not render n/a:\n%s", buf.String())
	}
}
