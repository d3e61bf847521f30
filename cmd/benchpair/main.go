// Command benchpair compares two builds of the repository benchmark
// (go run ./benchmark) by paired runs: for each seed it runs both binaries,
// odd seeds parent first and even seeds child first, so drift on the host
// falls on both sides alike. It prints every metric's per-pair ratio
// (child/parent), how many pairs the child won, the median ratio with its
// quartiles, each side's median with quartiles, and the ratio on a held-out
// seed that no pair used.
//
//	(cd parent-checkout && go build -o /tmp/parent ./benchmark)
//	go build -o /tmp/child ./benchmark
//	go run ./cmd/benchpair /tmp/parent /tmp/child -workload replay_schemes -pairs 10
//
// Run it from the repository root: a metric's direction (lower or higher is
// better) comes from BENCHMARK.json there, and a win is a pair in which the
// child is strictly better. Each run takes the benchmark's own window length.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// heldOutSeed is the seed run once per binary after the pairs, outside any
// pair's seeds.
const heldOutSeed = 101

// specFile names each metric's better direction.
const specFile = "BENCHMARK.json"

// contract is the last line the benchmark prints.
type contract struct {
	Correct bool   `json:"correct"`
	Failed  uint64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseContract reads the metrics off a benchmark's standard output: its
// last non-empty line. A run that reports itself incorrect, or any failed
// operation, is an error.
func parseContract(out []byte) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var c contract
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return nil, fmt.Errorf("contract line: %w", err)
	}
	if !c.Correct || c.Failed > 0 {
		return nil, fmt.Errorf("run not correct (failed %d)", c.Failed)
	}
	m := make(map[string]float64, len(c.Metrics))
	for k, v := range c.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// directions reads each metric's "better" (lower or higher) from a
// BENCHMARK.json.
func directions(spec []byte) (map[string]string, error) {
	var s struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, err
	}
	d := map[string]string{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		d[m.Name] = m.Better
	}
	return d, nil
}

// quartiles returns the first quartile, the median and the third quartile
// of v, interpolated as the benchmark's A/A mode does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// pair is one seed's two runs.
type pair struct {
	seed          int
	parent, child map[string]float64
}

// report writes the per-pair ratios and the summary of pairs, and the
// held-out pair's ratios beside it.
func report(w io.Writer, pairs []pair, held pair, better map[string]string) {
	names := map[string]bool{}
	for _, p := range append(pairs, held) {
		for k := range p.parent {
			if _, ok := p.child[k]; ok {
				names[k] = true
			}
		}
	}
	var sorted []string
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "per-pair ratio child/parent, seeds")
	for _, p := range pairs {
		fmt.Fprintf(w, " %d", p.seed)
	}
	fmt.Fprintln(w)
	for _, k := range sorted {
		fmt.Fprintf(w, "%-28s", k)
		for _, p := range pairs {
			fmt.Fprintf(w, " %.4f", p.child[k]/p.parent[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%-28s %-6s %5s %26s %26s %26s %9s\n", "metric", "better", "wins",
		"ratio median [q1, q3]", "parent median [q1, q3]", "child median [q1, q3]", fmt.Sprintf("seed %d", held.seed))
	for _, k := range sorted {
		var ratios, pv, cv []float64
		wins := 0
		for _, p := range pairs {
			a, b := p.parent[k], p.child[k]
			ratios, pv, cv = append(ratios, b/a), append(pv, a), append(cv, b)
			if (better[k] == "lower" && b < a) || (better[k] == "higher" && b > a) {
				wins++
			}
		}
		dir, winStr := better[k], fmt.Sprintf("%d/%d", wins, len(pairs))
		if dir == "" {
			dir, winStr = "?", "-"
		}
		fmt.Fprintf(w, "%-28s %-6s %5s %26s %26s %26s %9.4f\n", k, dir, winStr,
			span(ratios), span(pv), span(cv), held.child[k]/held.parent[k])
	}
}

// span formats v's median and quartiles.
func span(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// runner runs one binary once for a seed and returns its metrics.
type runner func(bin string, seed int) (map[string]float64, error)

// execRunner runs the benchmark binary as a child process, untraced, its
// run reports going to out.
func execRunner(workload, out string) runner {
	return func(bin string, seed int) (map[string]float64, error) {
		cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.Itoa(seed), "-trace", "0", "-out", out)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		m, perr := parseContract(stdout.Bytes())
		if perr != nil {
			return nil, fmt.Errorf("%s seed %d: %w (exit: %v) %s", bin, seed, perr, err, stderr.String())
		}
		return m, nil
	}
}

// runPair runs both binaries for seed, the parent first on odd seeds.
func runPair(run runner, parent, child string, seed int) (p pair, err error) {
	p.seed = seed
	if seed%2 == 1 {
		if p.parent, err = run(parent, seed); err == nil {
			p.child, err = run(child, seed)
		}
	} else if p.child, err = run(child, seed); err == nil {
		p.parent, err = run(parent, seed)
	}
	return p, err
}

func main() {
	fs := flag.NewFlagSet("benchpair", flag.ExitOnError)
	workload := fs.String("workload", "", "benchmark workload to pair (required)")
	pairs := fs.Int("pairs", 10, fmt.Sprintf("paired seeds, 1..N (N < %d)", heldOutSeed))
	// Flags may come before, between or after the two binaries.
	var bins []string
	for args := os.Args[1:]; ; args = fs.Args()[1:] {
		fs.Parse(args) //nolint:errcheck // ExitOnError
		if fs.NArg() == 0 {
			break
		}
		bins = append(bins, fs.Arg(0))
	}
	if err := run(bins, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(bins []string, workload string, pairs int) error {
	if len(bins) != 2 || workload == "" || pairs < 1 || pairs >= heldOutSeed {
		return fmt.Errorf("usage: benchpair PARENT_BIN CHILD_BIN -workload W -pairs N (1 ≤ N < %d)", heldOutSeed)
	}
	b, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	better, err := directions(b)
	if err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	out, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)
	runOne := execRunner(workload, out)
	var ps []pair
	for seed := 1; seed <= pairs; seed++ {
		p, err := runPair(runOne, bins[0], bins[1], seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", seed, pairs)
		ps = append(ps, p)
	}
	held, err := runPair(runOne, bins[0], bins[1], heldOutSeed)
	if err != nil {
		return err
	}
	fmt.Printf("# %s, %d pairs: parent %s, child %s\n", workload, pairs, bins[0], bins[1])
	report(os.Stdout, ps, held, better)
	return nil
}
