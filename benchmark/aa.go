package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// A/A mode: the same binary measured against itself. Two sets of n runs per
// workload, interleaved (A1 B1 A2 B2 ...) so drift in the host lands on
// both, run i of either set using seed i, each run its own process. What
// the two sets disagree by is the noise floor a regression bound has to
// clear.

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the acceptance procedure uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// childRun runs this binary once as a child process and parses its last
// line.
func childRun(name string, seed int, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	out = bytes.TrimSpace(out)
	var r result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &r, nil
}

func runAA(only string, n int, seconds float64, out io.Writer) error {
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	fmt.Fprintf(out, "A/A: 2 x %d runs per workload, %g s windows, seeds 1..%d\n\n", n, seconds, n)
	fmt.Fprintln(out, "| workload | metric | median A | median B | gap | spread A | spread B | bound |")
	fmt.Fprintln(out, "|---|---|---:|---:|---:|---:|---:|---:|")
	worstGap := map[string]float64{}
	worstSpread := map[string]float64{}
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= n; i++ {
			for s := range sets {
				r, err := childRun(name, i, seconds)
				if err != nil {
					return err
				}
				for k, v := range r.Metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][d.name])
			b1, b2, b3 := quartiles(sets[1][d.name])
			gap := math.Abs(b2-a2) / a2
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.4f | %.4f | %.4f | %.2f |\n",
				name, d.name, a2, b2, gap, sa, sb, d.bound)
			worstGap[d.name] = math.Max(worstGap[d.name], gap)
			worstSpread[d.name] = math.Max(worstSpread[d.name], math.Max(sa, sb))
		}
	}
	fmt.Fprintln(out, "\n| metric | largest gap | widest spread | bound | bound / spread |")
	fmt.Fprintln(out, "|---|---:|---:|---:|---:|")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "| %s | %.4f | %.4f | %.2f | %.1f |\n",
			d.name, worstGap[d.name], worstSpread[d.name], d.bound, d.bound/worstSpread[d.name])
	}
	return nil
}

// fingerprint is everything a window read off the device clock or counted:
// what must repeat exactly for equal seeds.
func (w *window) fingerprint() string {
	return fmt.Sprint(w.ops, w.failed, w.gets, w.hits, int64(w.sim), w.c,
		w.getH.Snapshot(), w.setH.Snapshot())
}

// replayOnce sets a replay workload up, measures one window and returns
// the fingerprint of each independently simulated part (the four schemes of
// replay_schemes; replay_cdn has one).
func replayOnce(name string, seed uint64, sz sizing) (map[string]string, error) {
	wl, err := newWorkload(name, sz)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := wl.setup(seed, nil); err != nil {
		return nil, err
	}
	w, err := wl.run(sz.seconds, nil)
	if err != nil {
		return nil, err
	}
	if err := w.check(); err != nil {
		return nil, err
	}
	if w.failed > 0 {
		return nil, fmt.Errorf("%d operations failed", w.failed)
	}
	fp := map[string]string{}
	if rs, ok := wl.(*replaySchemes); ok {
		for _, p := range rs.parts {
			fp[p.name] = p.w.fingerprint()
		}
	} else {
		fp[name] = w.fingerprint()
	}
	return fp, nil
}

// runCheck is the determinism check: the simulated side of a replay is a
// function of the seed and nothing else. Every part is checked before the
// verdict, so one report names everything that does not repeat.
func runCheck(only string, seed uint64, sz sizing, out io.Writer) error {
	bad := 0
	for _, name := range []string{"replay_schemes", "replay_cdn"} {
		if only != "" && only != name {
			continue
		}
		var fp [3]map[string]string
		for i, s := range []uint64{seed, seed, seed + 1} {
			var err error
			if fp[i], err = replayOnce(name, s, sz); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
		}
		parts := make([]string, 0, len(fp[0]))
		for part := range fp[0] {
			parts = append(parts, part)
		}
		sort.Strings(parts)
		for _, part := range parts {
			switch {
			case fp[0][part] != fp[1][part]:
				bad++
				fmt.Fprintf(out, "%s/%s: NOT DETERMINISTIC, two runs with seed %d disagree:\n  %s\n  %s\n", name, part, seed, fp[0][part], fp[1][part])
			case fp[0][part] == fp[2][part]:
				bad++
				fmt.Fprintf(out, "%s/%s: seeds %d and %d give identical results: the seed is not reaching the workload\n", name, part, seed, seed+1)
			default:
				fmt.Fprintf(out, "%s/%s: seed %d repeats bit for bit, seed %d differs\n", name, part, seed, seed+1)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("determinism check failed for %d part(s)", bad)
	}
	return nil
}
