package harness

import (
	"bytes"
	"strings"
	"testing"
)

func smokeAdmissionSweep() AdmissionSweepParams {
	p := DefaultAdmissionSweep()
	p.Keys = 16 << 10
	p.WarmupOps = 60_000
	p.MeasureOps = 60_000
	return p
}

// TestAdmissionSweepSmoke runs the sweep at a reduced scale and checks its
// structural invariants: row layout, per-policy measurements, the budget
// landing only on dynamic-random rows, and the budget actually constraining
// device writes relative to the admit-all baseline.
func TestAdmissionSweepSmoke(t *testing.T) {
	p := smokeAdmissionSweep()
	rows, err := RunAdmissionSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	perScheme := 1 + len(p.Policies)
	if want := len(AllSchemes) * perScheme; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	baseline := map[Scheme]uint64{}
	for i, r := range rows {
		if i%perScheme == 0 {
			if r.Policy != "all" {
				t.Fatalf("row %d: scheme %v starts with policy %q, want all", i, r.Scheme, r.Policy)
			}
			if r.AdmitRejects != 0 {
				t.Fatalf("admit-all rejected %d inserts", r.AdmitRejects)
			}
			baseline[r.Scheme] = r.DeviceWriteBytes
		} else if r.AdmitRejects == 0 {
			t.Fatalf("%v/%s: policy never rejected", r.Scheme, r.Policy)
		}
		if r.DeviceWriteBytes == 0 || r.HostWriteBytes == 0 {
			t.Fatalf("%v/%s: no write bytes measured (%d dev, %d host)",
				r.Scheme, r.Policy, r.DeviceWriteBytes, r.HostWriteBytes)
		}
		if r.Result.HitRatio <= 0 || r.Result.HitRatio > 1 {
			t.Fatalf("%v/%s: hit ratio %v", r.Scheme, r.Policy, r.Result.HitRatio)
		}
		if isDyn := r.Policy == "dynamic-random"; isDyn != (r.BudgetBytesPerSec > 0) {
			t.Fatalf("%v/%s: budget %v on a non-dynamic row (or missing)",
				r.Scheme, r.Policy, r.BudgetBytesPerSec)
		}
		if r.Policy == "dynamic-random" && r.DeviceWriteBytes >= baseline[r.Scheme] {
			t.Fatalf("%v: dynamic-random wrote %d device bytes, not below the %d admit-all baseline",
				r.Scheme, r.DeviceWriteBytes, baseline[r.Scheme])
		}
	}

	var buf bytes.Buffer
	PrintAdmission(&buf, rows)
	if !strings.Contains(buf.String(), "dynamic-random") {
		t.Fatal("PrintAdmission output missing policy rows")
	}
	rep := roundTrip(t, &Report{Experiment: "admission", Admission: rows})
	if len(rep.Admission) != len(rows) {
		t.Fatalf("report rows = %d, want %d", len(rep.Admission), len(rows))
	}
}

// TestAdmissionSweepDeterministic: the sweep's worker pool must not leak
// scheduling into results — two runs with the same params agree exactly.
func TestAdmissionSweepDeterministic(t *testing.T) {
	p := smokeAdmissionSweep()
	p.MeasureOps = 30_000
	p.WarmupOps = 30_000
	a, err := RunAdmissionSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdmissionSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged between identical runs:\n  run1: %+v\n  run2: %+v", i, a[i], b[i])
		}
	}
}
