package harness

import (
	"strconv"
	"testing"
)

// TestContractsSweepSmoke runs a tiny two-limit sweep across all four
// schemes and checks the row layout and the structural facts the full sweep
// relies on: File-Cache is omitted below its two-log-head minimum, the
// Block-Cache control rows ignore the limits, and squeezing the open cap
// below the middle layer's working set makes Region-Cache pay for flushes
// with budget-freeing zone transitions (stalls) instead of errors.
func TestContractsSweepSmoke(t *testing.T) {
	p := ContractsParams{
		Zones:           25,
		Keys:            8 << 10,
		WarmupOps:       40_000,
		MeasureOps:      20_000,
		Seed:            7,
		Limits:          []int{14, 1},
		ActiveSlack:     2,
		MiddleOpenZones: 4,
	}
	rows, err := RunContracts(p)
	if err != nil {
		t.Fatalf("RunContracts: %v", err)
	}
	// 4 schemes × 2 limits, minus File-Cache at open=1.
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7: %+v", len(rows), rows)
	}
	byKey := map[string]ContractsRow{}
	for _, r := range rows {
		if r.Result.Ops != uint64(p.MeasureOps) {
			t.Errorf("%v open=%d: measured %d ops, want %d", r.Scheme, r.MaxOpen, r.Result.Ops, p.MeasureOps)
		}
		if r.Result.HitRatio < 0 || r.Result.HitRatio > 1 {
			t.Errorf("%v open=%d: hit ratio %v out of range", r.Scheme, r.MaxOpen, r.Result.HitRatio)
		}
		if r.Result.WAFactor < 1 {
			t.Errorf("%v open=%d: WAF %v below 1", r.Scheme, r.MaxOpen, r.Result.WAFactor)
		}
		if r.MaxActive != r.MaxOpen+p.ActiveSlack {
			t.Errorf("%v: active %d, want open %d + slack %d", r.Scheme, r.MaxActive, r.MaxOpen, p.ActiveSlack)
		}
		byKey[r.Scheme.String()+"@"+strconv.Itoa(r.MaxOpen)] = r
	}
	if _, ok := byKey["File-Cache@1"]; ok {
		t.Error("File-Cache row at open=1 should be omitted (f2fs needs two log heads)")
	}
	// A single open zone is below the middle layer's 4-zone working set:
	// every round-robin flush to a closed zone must transition another zone
	// out of the open state first. That pressure must surface as stalls,
	// never as failed flushes (Ops checked above).
	tight := byKey["Region-Cache@1"]
	if tight.BudgetStalls == 0 {
		t.Error("Region-Cache at open=1: no budget stalls recorded under a 4-zone working set")
	}
	wide := byKey["Region-Cache@14"]
	if wide.BudgetStalls != 0 {
		t.Errorf("Region-Cache at open=14: %d budget stalls with the working set inside the cap", wide.BudgetStalls)
	}
	// Block-Cache runs on a conventional SSD: the limits must not change its
	// results (same seed, same workload, same device stack).
	if a, b := byKey["Block-Cache@14"].Result, byKey["Block-Cache@1"].Result; a != b {
		t.Errorf("Block-Cache control rows differ across limits:\n  open=14: %+v\n  open=1:  %+v", a, b)
	}

	rep := roundTrip(t, &Report{Experiment: "contracts", Contracts: rows})
	if len(rep.Contracts) != len(rows) {
		t.Fatalf("report has %d rows, want %d", len(rep.Contracts), len(rows))
	}
}
