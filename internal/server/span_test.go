package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"znscache/internal/obs"
)

// TestSpanStageSumMatchesRequestLatency checks the stage-sum invariant with
// every batch sampled: queue_wait + exec partitions the measured request
// window exactly, so their histogram sums and counts must equal the
// server_request_latency histogram's. On the inline path each command is a
// one-op batch that waits for no lock; over a sharded backend each pipeline
// is one batch of sets spread over the shards, whose groups each wait for
// their shard's lock.
func TestSpanStageSumMatchesRequestLatency(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		rec, s, cl := spanServer(t, plainBackend{newTestBackend(t)})
		const ops = 50
		for i := 0; i < ops; i++ {
			if _, err := cl.Set("k", 0, 0, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if r, err := cl.Get("k"); err != nil || !r.Hit {
				t.Fatalf("Get = %+v, %v", r, err)
			}
		}
		checkStageSum(t, rec, s, 2*ops, 1)
		if qw := rec.StageSnapshot(obs.StageQueueWait); qw.Sum != 0 {
			t.Fatalf("queue_wait = %v without shard groups, want 0", qw.Sum)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		rec, s, cl := spanServer(t, newTestBackend(t))
		const batches, width = 25, 8
		for n := 0; n < batches; n++ {
			for i := 0; i < width; i++ {
				cl.QueueSet(fmt.Sprintf("k%d", i), 0, 0, []byte("v"))
			}
			rs, err := cl.Exchange()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Err != "" {
					t.Fatalf("set: %+v", r)
				}
			}
		}
		checkStageSum(t, rec, s, batches, width)
		if g, p := s.m.dispatchGroups.Load(), s.m.dispatchPhases.Load(); g <= p {
			t.Fatalf("%d shard groups in %d phases: the sets did not spread over the shards", g, p)
		}
		if qw := rec.StageSnapshot(obs.StageQueueWait); qw.Sum <= 0 {
			t.Fatalf("queue_wait = %v over %d shard groups, want > 0", qw.Sum, s.m.dispatchGroups.Load())
		}
	})
}

// spanServer serves be with every batch's span sampled and dials it.
func spanServer(t *testing.T, be Backend) (*obs.SpanRecorder, *Server, *Client) {
	t.Helper()
	rec := obs.NewSpanRecorder(obs.SpanConfig{SampleEvery: 1, SlowThreshold: -1})
	s := startServer(t, Config{Backend: be, Spans: rec})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck
	return rec, s, cl
}

// checkStageSum asserts that s served batches batches of width ops each,
// one batch per span, and that every span's queue_wait + exec equals the
// latency each of its batch's requests observed.
func checkStageSum(t *testing.T, rec *obs.SpanRecorder, s *Server, batches, width int) {
	t.Helper()
	// The server settles a batch's span after it has written the reply, so
	// the last exchange can return before its stages are recorded: wait.
	for deadline := time.Now().Add(2 * time.Second); rec.SampledCount() < uint64(batches) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := s.m.batches.Load(); n != uint64(batches) {
		t.Fatalf("%d batches executed, want %d", n, batches)
	}
	lat := s.m.reqLatency.Snapshot()
	qw := rec.StageSnapshot(obs.StageQueueWait)
	ex := rec.StageSnapshot(obs.StageExec)
	if lat.Count != uint64(batches*width) {
		t.Fatalf("request latency count = %d, want %d", lat.Count, batches*width)
	}
	if qw.Count != uint64(batches) || ex.Count != uint64(batches) {
		t.Fatalf("stage counts (qw=%d exec=%d), want one per batch (%d)", qw.Count, ex.Count, batches)
	}
	if got := time.Duration(width) * (qw.Sum + ex.Sum); got != lat.Sum {
		t.Fatalf("%d × (queue_wait(%v) + exec(%v)) = %v, want request latency sum %v",
			width, qw.Sum, ex.Sum, got, lat.Sum)
	}
	if rec.SampledCount() != uint64(batches) {
		t.Fatalf("SampledCount = %d, want %d (SampleEvery 1)", rec.SampledCount(), batches)
	}
	if fl := rec.StageSnapshot(obs.StageFlush); fl.Count != uint64(batches) {
		t.Fatalf("flush stage count = %d, want %d", fl.Count, batches)
	}
}

// TestForcedSlowRequestExemplar drops the threshold to 1ns so every request
// is "slow", and checks the exemplar carries the full identity and stage
// breakdown the acceptance criterion names.
func TestForcedSlowRequestExemplar(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.SpanConfig{SampleEvery: 64, SlowThreshold: time.Nanosecond})
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, Spans: rec})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("hotkey", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// The span settles after the reply is written: wait for the exemplar.
	for deadline := time.Now().Add(2 * time.Second); rec.SlowTotal() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if rec.SlowTotal() == 0 {
		t.Fatal("no exemplar recorded with a 1ns threshold")
	}
	sr := rec.SlowRequests()[0]
	if sr.Verb != "set" || sr.Key != "hotkey" || sr.BatchOps != 1 {
		t.Fatalf("exemplar identity: %+v", sr)
	}
	if sr.Total <= 0 || sr.At.IsZero() {
		t.Fatalf("exemplar missing total/timestamp: %+v", sr)
	}
	stages := sr.Stages()
	if stages["exec"] <= 0 {
		t.Fatalf("exemplar has no exec stage: %v", stages)
	}
}

// TestSpanConcurrentPipelinedBatches is the race test: many connections
// pipelining against one recorder, with sampling and the exemplar ring both
// live. Run with -race; the assertions pin the shared counters.
func TestSpanConcurrentPipelinedBatches(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.SpanConfig{
		SampleEvery: 2, SlowThreshold: time.Nanosecond, SlowLogCap: 64,
	})
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, Spans: rec})

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
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %d", res.Errors)
	}
	if rec.SampledCount() == 0 {
		t.Fatal("no spans sampled under pipelined load")
	}
	if rec.SlowTotal() == 0 {
		t.Fatal("no exemplars under a 1ns threshold")
	}
	// Every sampled span observes each server stage once.
	if got := rec.StageSnapshot(obs.StageExec).Count; got != rec.SampledCount() {
		t.Fatalf("exec observations %d != sampled spans %d", got, rec.SampledCount())
	}
	for _, sr := range rec.SlowRequests() {
		if sr.BatchOps <= 0 || sr.Total <= 0 {
			t.Fatalf("malformed exemplar: %+v", sr)
		}
	}
}

// TestPerVerbRequestLatency checks the server_request_latency split: the
// unlabeled aggregate plus one labeled series per verb, counts matching the
// traffic sent.
func TestPerVerbRequestLatency(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s.MetricsInto(reg, nil)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`server_request_latency_count{verb="get"} 2`,
		`server_request_latency_count{verb="set"} 1`,
		`server_request_latency_count{verb="delete"} 1`,
		"server_request_latency_count 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLoadgenProgressTimeline drives a short run with progress sampling on
// and checks the interval series accounts for every completed request.
func TestLoadgenProgressTimeline(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	var sb strings.Builder
	res, err := Run(LoadConfig{
		Addr:      s.Addr(),
		Conns:     2,
		Pipeline:  4,
		Ops:       1000,
		Keys:      256,
		Seed:      3,
		Progress:  10 * time.Millisecond,
		ProgressW: &sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %d", res.Errors)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline intervals recorded")
	}
	var sum uint64
	last := time.Duration(-1)
	for _, iv := range res.Timeline {
		sum += iv.Ops
		if iv.T <= last {
			t.Fatalf("timeline not monotonic: %v after %v", iv.T, last)
		}
		last = iv.T
		if iv.Ops > 0 && iv.P99 < iv.P50 {
			t.Fatalf("interval p99 %v below p50 %v", iv.P99, iv.P50)
		}
	}
	if sum != res.Ops {
		t.Fatalf("timeline ops %d != run ops %d", sum, res.Ops)
	}
	if !strings.Contains(sb.String(), "[loadgen]") {
		t.Fatalf("no progress lines written:\n%s", sb.String())
	}
}
