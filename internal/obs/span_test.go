package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanSamplerCadence(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SampleEvery: 4, SlowThreshold: -1})
	hits := 0
	for i := 0; i < 40; i++ {
		if r.SampleNow() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-4 sampler fired %d times in 40 draws, want 10", hits)
	}
}

func TestSettleObservesServerStagesOnly(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SampleEvery: 1, SlowThreshold: -1})
	var sp Span
	for st := Stage(0); st < stageCount; st++ {
		sp.Add(st, time.Millisecond)
	}
	r.Settle(&sp, true, SlowRequest{})
	for st := Stage(0); st < stageCount; st++ {
		snap := r.StageSnapshot(st)
		want := uint64(1)
		if st >= serverStageEnd {
			want = 0 // cache stages observe themselves, never via Settle
		}
		if snap.Count != want {
			t.Fatalf("stage %s count = %d, want %d", st, snap.Count, want)
		}
	}
	if r.SampledCount() != 1 {
		t.Fatalf("SampledCount = %d, want 1", r.SampledCount())
	}
}

func TestSettleUnsampledStillRecordsSlowExemplar(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SampleEvery: 1, SlowThreshold: time.Millisecond})
	var sp Span
	sp.Add(StageExec, 2*time.Millisecond)
	sp.Add(StageFlush, time.Millisecond)
	r.Settle(&sp, false, SlowRequest{Verb: "get", Key: "k1", Shard: 3, BatchOps: 8})
	if got := r.StageSnapshot(StageExec).Count; got != 0 {
		t.Fatalf("unsampled settle observed %d histogram samples", got)
	}
	if r.SlowTotal() != 1 {
		t.Fatalf("SlowTotal = %d, want 1", r.SlowTotal())
	}
	reqs := r.SlowRequests()
	if len(reqs) != 1 {
		t.Fatalf("retained %d exemplars, want 1", len(reqs))
	}
	sr := reqs[0]
	if sr.Verb != "get" || sr.Key != "k1" || sr.Shard != 3 || sr.BatchOps != 8 {
		t.Fatalf("exemplar identity lost: %+v", sr)
	}
	if sr.Total != 3*time.Millisecond {
		t.Fatalf("exemplar total = %v, want 3ms", sr.Total)
	}
	stages := sr.Stages()
	if stages["exec"] != int64(2*time.Millisecond) || stages["flush"] != int64(time.Millisecond) {
		t.Fatalf("exemplar stage breakdown wrong: %v", stages)
	}
	if _, ok := stages["parse"]; ok {
		t.Fatalf("zero-duration stage leaked into the breakdown: %v", stages)
	}
}

func TestSettleBelowThresholdNotRecorded(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SlowThreshold: time.Second})
	var sp Span
	sp.Add(StageExec, time.Millisecond)
	r.Settle(&sp, false, SlowRequest{Verb: "get"})
	if r.SlowTotal() != 0 {
		t.Fatalf("sub-threshold span recorded an exemplar")
	}
}

func TestSlowRingCapAndOrder(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SlowThreshold: time.Nanosecond, SlowLogCap: 4})
	for i := 1; i <= 6; i++ {
		var sp Span
		sp.Add(StageExec, time.Duration(i)*time.Millisecond)
		r.Settle(&sp, false, SlowRequest{BatchOps: i})
	}
	if r.SlowTotal() != 6 {
		t.Fatalf("SlowTotal = %d, want 6", r.SlowTotal())
	}
	reqs := r.SlowRequests()
	if len(reqs) != 4 {
		t.Fatalf("ring retained %d, want cap 4", len(reqs))
	}
	for i, sr := range reqs {
		if want := i + 3; sr.BatchOps != want {
			t.Fatalf("ring[%d].BatchOps = %d, want %d (oldest-first, newest kept)",
				i, sr.BatchOps, want)
		}
	}
}

func TestWriteSlowLogJSON(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SlowThreshold: time.Nanosecond})
	var sp Span
	sp.Add(StageQueueWait, time.Millisecond)
	sp.Add(StageExec, 2*time.Millisecond)
	r.Settle(&sp, false, SlowRequest{Verb: "set", Key: "hot", Shard: 1, BatchOps: 2})
	var buf bytes.Buffer
	if err := r.WriteSlowLog(&buf); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Verb     string           `json:"verb"`
		Key      string           `json:"key"`
		Shard    int              `json:"shard"`
		BatchOps int              `json:"batch_ops"`
		TotalNs  int64            `json:"total_ns"`
		Stages   map[string]int64 `json:"stages_ns"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("slow log is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0].Verb != "set" || out[0].Key != "hot" ||
		out[0].Stages["queue_wait"] != int64(time.Millisecond) ||
		out[0].Stages["exec"] != int64(2*time.Millisecond) {
		t.Fatalf("slow log round-trip lost fields: %+v", out)
	}
}

// TestSpanRecorderConcurrent hammers one recorder from many goroutines —
// sampling draws, settles (slow and fast), direct cache-stage observes, and
// concurrent readers — and checks the shared counters add up. Run with -race.
func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{SampleEvery: 2, SlowThreshold: time.Millisecond, SlowLogCap: 32})
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var sp Span
				sp.Add(StageExec, time.Duration(i%3)*time.Millisecond)
				r.Settle(&sp, r.SampleNow(), SlowRequest{Verb: "get", BatchOps: w})
				r.Observe(StageFastGet, time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.SlowRequests()
			r.StageSnapshot(StageExec)
			r.SampledCount()
		}
	}()
	wg.Wait()
	<-done
	total := uint64(workers * perWorker)
	if got := r.SampledCount(); got != total/2 {
		t.Fatalf("SampledCount = %d, want %d (1-in-2 of %d settles)", got, total/2, total)
	}
	// i%3 ∈ {0,1,2}ms; 1ms and 2ms meet the threshold — 333 of each
	// worker's 500 settles (167 ones + 166 twos).
	if want := uint64(workers * 333); r.SlowTotal() != want {
		t.Fatalf("SlowTotal = %d, want %d", r.SlowTotal(), want)
	}
	if got := r.StageSnapshot(StageFastGet).Count; got != total {
		t.Fatalf("fast_get observes = %d, want %d", got, total)
	}
}

// TestSpanMetricsGolden pins the exported series names: the CI scrape
// assertions and EXPERIMENTS.md address these literally.
func TestSpanMetricsGolden(t *testing.T) {
	reg := NewRegistry()
	rec := NewSpanRecorder(SpanConfig{})
	rec.MetricsInto(reg, nil)
	RuntimeMetricsInto(reg, nil)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`server_stage_latency_count{stage="sock_read"}`,
		`server_stage_latency_count{stage="parse"}`,
		`server_stage_latency_count{stage="queue_wait"}`,
		`server_stage_latency_count{stage="exec"}`,
		`server_stage_latency_count{stage="flush"}`,
		`cache_stage_latency_count{stage="fast_get"}`,
		`cache_stage_latency_count{stage="locked_get"}`,
		`cache_stage_latency_count{stage="set_publish"}`,
		`cache_stage_latency_count{stage="region_flush"}`,
		`cache_stage_latency_count{stage="store_io"}`,
		"span_sampled_total",
		"span_slow_requests_total",
		"go_goroutines",
		"go_heap_objects_bytes",
		`go_gc_pause_seconds{quantile="0.99"}`,
		"go_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

var sinkSpan Span

// BenchmarkSpanPathDisabled measures the serving path's per-site cost with
// spans off: one nil pointer test, no clock reads. This is the ~zero the
// acceptance criterion demands; compare against BenchmarkSpanPathEnabled.
func BenchmarkSpanPathDisabled(b *testing.B) {
	var rec *SpanRecorder
	for i := 0; i < b.N; i++ {
		if rec != nil {
			t0 := time.Now()
			sinkSpan.Add(StageExec, time.Since(t0))
		}
	}
}

// BenchmarkSpanPathEnabled measures the per-batch cost with a recorder
// installed and every batch sampled — the worst case (SampleEvery 1).
func BenchmarkSpanPathEnabled(b *testing.B) {
	rec := NewSpanRecorder(SpanConfig{SampleEvery: 1, SlowThreshold: -1})
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sinkSpan.Add(StageExec, time.Since(t0))
		rec.Settle(&sinkSpan, rec.SampleNow(), SlowRequest{})
		sinkSpan.Reset()
	}
}
