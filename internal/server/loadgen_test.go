package server

import (
	"testing"
	"time"

	"znscache/internal/workload"
)

func TestLoadgenClosedLoop(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})

	res, err := Run(LoadConfig{
		Addr:       s.Addr(),
		Conns:      4,
		Pipeline:   8,
		Ops:        2000,
		Keys:       512,
		Seed:       7,
		FillOnMiss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Fatalf("Mode = %q", res.Mode)
	}
	if res.Ops < 2000 {
		t.Fatalf("Ops = %d, want >= 2000 (budget plus trailing fills)", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("Errors = %d", res.Errors)
	}
	if res.Gets == 0 || res.Sets == 0 || res.Deletes == 0 {
		t.Fatalf("mix incomplete: gets=%d sets=%d deletes=%d", res.Gets, res.Sets, res.Deletes)
	}
	if res.Hits+res.Misses != res.Gets {
		t.Fatalf("hits+misses=%d, gets=%d", res.Hits+res.Misses, res.Gets)
	}
	// Read-through fills make the hot keys stick: with 512 keys and zipf
	// skew there must be both fills and subsequent hits.
	if res.Fills == 0 || res.Hits == 0 {
		t.Fatalf("fills=%d hits=%d; read-through fill not working", res.Fills, res.Hits)
	}
	if res.AchievedQPS <= 0 || res.Elapsed <= 0 {
		t.Fatalf("AchievedQPS=%v Elapsed=%v", res.AchievedQPS, res.Elapsed)
	}
	if res.Latency.Count == 0 || res.Latency.P99 < res.Latency.P50 {
		t.Fatalf("latency snapshot broken: %+v", res.Latency)
	}
	if hr := res.HitRatio(); hr <= 0 || hr >= 1 {
		t.Fatalf("HitRatio = %v", hr)
	}
}

func TestLoadgenOpenLoop(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})

	const target = 2000.0
	res, err := Run(LoadConfig{
		Addr:      s.Addr(),
		Conns:     2,
		Pipeline:  4,
		Duration:  500 * time.Millisecond,
		TargetQPS: target,
		Keys:      256,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.TargetQPS != target {
		t.Fatalf("Mode=%q TargetQPS=%v", res.Mode, res.TargetQPS)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("Ops=%d Errors=%d", res.Ops, res.Errors)
	}
	// The schedule should hold the rate well below the closed-loop ceiling:
	// a loopback map server runs far above 2k QPS, so achieving within
	// ±60% of target means the pacing actually paced.
	if res.AchievedQPS > target*1.6 {
		t.Fatalf("open loop overshot: achieved %.0f QPS, target %.0f", res.AchievedQPS, target)
	}
	if res.AchievedQPS < target*0.4 {
		t.Fatalf("open loop undershot: achieved %.0f QPS, target %.0f", res.AchievedQPS, target)
	}
}

// TestLoadgenDialError pins the error path: an unreachable server reports a
// dial failure rather than an empty result.
func TestLoadgenDialError(t *testing.T) {
	if _, err := Run(LoadConfig{Addr: "127.0.0.1:1", Ops: 10, Conns: 1}); err == nil {
		t.Fatal("Run against a dead address succeeded")
	}
}

func TestLoadgenValueDist(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})

	dist, err := workload.ParseSizeDist("pareto:1.2:1024:262144")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(LoadConfig{
		Addr:       s.Addr(),
		Conns:      2,
		Pipeline:   8,
		Ops:        1500,
		Keys:       256,
		Seed:       11,
		FillOnMiss: true,
		ValueDist:  dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("Errors = %d", res.Errors)
	}
	if res.Sets == 0 {
		t.Fatal("no sets completed")
	}
	if len(res.ValueSizeBuckets) == 0 {
		t.Fatal("ValueSizeBuckets empty")
	}
	var total uint64
	for bkt, c := range res.ValueSizeBuckets {
		if bkt < 1024 || bkt > 262144 {
			t.Errorf("bucket %d outside the distribution's [1024, 262144] bounds", bkt)
		}
		total += c
	}
	if total != res.Sets {
		t.Errorf("bucket counts sum to %d, want Sets = %d", total, res.Sets)
	}
	// A Pareto over a 256x span must land in more than one pow2 bucket.
	if len(res.ValueSizeBuckets) < 3 {
		t.Errorf("only %d distinct buckets; heavy tail not expressed: %v",
			len(res.ValueSizeBuckets), res.ValueSizeBuckets)
	}
}
