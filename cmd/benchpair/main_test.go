package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// canned is a benchmark's standard output: report lines, then the contract.
func canned(heap, cpu, hit float64) string {
	return fmt.Sprintf(`# replay_schemes seed=1 seconds=15 traced=false
live_heap_mib  %[1]g MiB
attempted 3600000, failed 0
{"correct":true,"attempted":3600000,"failed":0,"metrics":{"live_heap_mib":{"value":%[1]g,"unit":"MiB"},"cpu_us_per_op":{"value":%[2]g,"unit":"us"},"hit_ratio":{"value":%[3]g,"unit":"ratio"}}}
`, heap, cpu, hit)
}

func TestParseContract(t *testing.T) {
	m, err := parseContract([]byte(canned(50.5, 0.6, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	if m["live_heap_mib"] != 50.5 || m["cpu_us_per_op"] != 0.6 || m["hit_ratio"] != 0.83 || len(m) != 3 {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{
		"",
		"no contract here\n",
		`{"correct":false,"attempted":1,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":10,"failed":2,"metrics":{}}`,
	} {
		if _, err := parseContract([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles of 1..5 = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Fatalf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

// TestPairsAlternateAndReport runs canned contract lines through the pair
// loop and the report: odd seeds run the parent first, even seeds the
// child; the child wins heap in every pair, never hit ratio (identical), and
// cpu in the pairs where it is lower.
func TestPairsAlternateAndReport(t *testing.T) {
	var order []string
	run := func(bin string, seed int) (map[string]float64, error) {
		order = append(order, fmt.Sprintf("%s%d", bin, seed))
		heap, cpu := 50.0, 0.6
		if bin == "C" {
			heap, cpu = 43.0, 0.6+0.01*float64(seed%2*2-1) // worse on odd seeds
		}
		return parseContract([]byte(canned(heap, cpu, 0.83)))
	}
	var pairs []pair
	for seed := 1; seed <= 4; seed++ {
		p, err := runPair(run, "P", "C", seed)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	held, err := runPair(run, "P", "C", heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "P1 C1 C2 P2 P3 C3 C4 P4 P101 C101" {
		t.Fatalf("run order %s", got)
	}
	better, err := directions([]byte(`{"end_to_end":[{"name":"live_heap_mib","better":"lower"},
		{"name":"cpu_us_per_op","better":"lower"},{"name":"hit_ratio","better":"higher"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, pairs, held, better)
	rows := map[string][]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = append(rows[f[0]], l)
		}
	}
	for _, c := range []struct{ metric, ratios, summary, held string }{
		{"live_heap_mib", "0.8600 0.8600 0.8600 0.8600", "lower 4/4 0.86 [0.86, 0.86] 50", "0.8600"},
		{"cpu_us_per_op", "1.0167 0.9833 1.0167 0.9833", "lower 2/4 1 [0.9833, 1.017] 0.6", "1.0167"},
		{"hit_ratio", "1.0000 1.0000 1.0000 1.0000", "higher 0/4 1 [1, 1] 0.83", "1.0000"},
	} {
		r := rows[c.metric]
		if len(r) != 2 {
			t.Fatalf("%s: %d rows", c.metric, len(r))
		}
		ratios, summary := strings.Fields(r[0])[1:], strings.Fields(r[1])[1:]
		if strings.Join(ratios, " ") != c.ratios || !strings.HasPrefix(strings.Join(summary, " "), c.summary) ||
			summary[len(summary)-1] != c.held {
			t.Errorf("%s rows:\n%s\nwant ratios %q, summary %q..., held-out %s", c.metric, strings.Join(r, "\n"), c.ratios, c.summary, c.held)
		}
	}
}
