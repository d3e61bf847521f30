package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestReplayDeterminism is the -check mode at about 1/100 size: small
// devices, a warm-up that stops short of the first eviction, a window of a
// few thousand operations. The full-size check (which does reach eviction
// and every GC) is `go run ./benchmark -check`.
func TestReplayDeterminism(t *testing.T) {
	sz := sizing{seconds: 0.15, turnovers: 0.2, schemeZones: 16, cdnZones: 6}
	if err := runCheck("", 7, sz, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestContract holds BENCHMARK.json and the tables in metrics.go together.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name, fullSize(float64(spec.RunSeconds))); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestPayloadTag: a value served under the wrong key, truncated or padded
// must fail verification.
func TestPayloadTag(t *testing.T) {
	buf := make([]byte, 1024)
	v := putPayload(buf, "key-000000000001", 300)
	if !payloadOK("key-000000000001", v) {
		t.Fatal("own payload rejected")
	}
	if payloadOK("key-000000000002", v) {
		t.Error("payload accepted under another key")
	}
	if payloadOK("key-000000000001", v[:299]) {
		t.Error("truncated payload accepted")
	}
	if payloadOK("key-000000000001", buf[:301]) {
		t.Error("padded payload accepted")
	}
}
