package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/stats"
)

// This file is the request-stage span layer (DESIGN.md §13): a sampled,
// low-overhead attribution of where wall-clock time goes inside one served
// request. The serving path accumulates per-stage durations into a Span and
// settles it against a shared SpanRecorder at each pipeline-batch boundary;
// the cache engine observes its own stages (fast vs locked get, set publish,
// region flush, store I/O) directly. A nil *SpanRecorder disables everything
// at the cost of one pointer test per site — the serving path must cost ~zero
// with spans off, which the benchmark in span_test.go and the CI
// bench-compare step both check.

// Stage identifies one segment of a request's life. Server-side stages are
// exported as server_stage_latency{stage=...}; cache-side stages as
// cache_stage_latency{stage=...}.
type Stage uint8

// Request stages. The server stages partition a batch's serving time:
// queue_wait + exec equals the batch's server_request_latency observation
// exactly, while sock_read/parse happen before the measured request window
// and flush after it.
const (
	// StageSockRead is time blocked reading request bytes mid-batch (a
	// stalled sender). Idle time waiting for a batch's first command is
	// client think time, not request latency, and is excluded.
	StageSockRead Stage = iota
	// StageParse is command parsing, including set-body consumption.
	StageParse
	// StageQueueWait is time a batch's shard write groups waited for their
	// shard's lock, summed over the groups: they run one after another on
	// the connection goroutine.
	StageQueueWait
	// StageExec is batch execution minus queue wait: engine work under the
	// shard locks plus the gets, all on the connection goroutine.
	StageExec
	// StageFlush is the response writev.
	StageFlush

	// StageFastGet is a lock-free read-index get (cache side).
	StageFastGet
	// StageLockedGet is a get that fell back to the shard write lock.
	StageLockedGet
	// StageSetPublish is a set's engine path: append, index, read-index
	// publish.
	StageSetPublish
	// StageRegionFlush is a region roll: flush submission, pipeline waits,
	// eviction bookkeeping.
	StageRegionFlush
	// StageStoreIO is the wall-clock cost of store read/write calls inside
	// the engine. The devices are simulated, so this is simulator compute,
	// not device time — device latency lives on the virtual clock.
	StageStoreIO

	stageCount
)

// serverStageEnd is the first cache-side stage; stages below it register as
// server_stage_latency, the rest as cache_stage_latency.
const serverStageEnd = StageFastGet

var stageNames = [stageCount]string{
	"sock_read", "parse", "queue_wait", "exec", "flush",
	"fast_get", "locked_get", "set_publish", "region_flush", "store_io",
}

// String names the stage as its Prometheus label value.
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return fmt.Sprintf("Stage(%d)", uint8(st))
}

// Span accumulates one request batch's per-stage durations. It is plain
// storage owned by one goroutine (the server keeps one per connection);
// settling it against the recorder is what costs a lock.
type Span struct {
	durs [stageCount]time.Duration
}

// Add accumulates d into stage st.
func (s *Span) Add(st Stage, d time.Duration) { s.durs[st] += d }

// Get returns the accumulated duration of stage st.
func (s *Span) Get(st Stage) time.Duration { return s.durs[st] }

// Total sums every stage.
func (s *Span) Total() time.Duration {
	var t time.Duration
	for _, d := range s.durs {
		t += d
	}
	return t
}

// Reset clears the span for the next batch.
func (s *Span) Reset() { s.durs = [stageCount]time.Duration{} }

// SlowRequest is one slow-request exemplar: the full stage breakdown of a
// batch that exceeded the recorder's SlowThreshold, with enough identity
// (verb, key, shard, batch size) to chase it through the logs. The key and
// verb are the batch's first op — an exemplar, not a census.
type SlowRequest struct {
	At       time.Time     `json:"at"`
	Verb     string        `json:"verb"`
	Key      string        `json:"key"`
	Shard    int           `json:"shard"`
	BatchOps int           `json:"batch_ops"`
	Total    time.Duration `json:"total_ns"`

	stages [stageCount]time.Duration
}

// Stages returns the breakdown as stage-name → nanoseconds, the form the
// JSON export uses.
func (sr *SlowRequest) Stages() map[string]int64 {
	out := make(map[string]int64, stageCount)
	for i, d := range sr.stages {
		if d > 0 {
			out[stageNames[i]] = int64(d)
		}
	}
	return out
}

// MarshalJSON flattens the stage array into a named map so the exemplar log
// is readable without the Stage enum.
func (sr *SlowRequest) MarshalJSON() ([]byte, error) {
	type wire struct {
		At       time.Time        `json:"at"`
		Verb     string           `json:"verb"`
		Key      string           `json:"key"`
		Shard    int              `json:"shard"`
		BatchOps int              `json:"batch_ops"`
		TotalNs  int64            `json:"total_ns"`
		Stages   map[string]int64 `json:"stages_ns"`
	}
	return json.Marshal(wire{
		At: sr.At, Verb: sr.Verb, Key: sr.Key, Shard: sr.Shard,
		BatchOps: sr.BatchOps, TotalNs: int64(sr.Total), Stages: sr.Stages(),
	})
}

// SpanConfig parameterizes a SpanRecorder. Zero values select the defaults
// noted on each field.
type SpanConfig struct {
	// SampleEvery observes 1 in every N settled spans into the stage
	// histograms (default 64; 1 samples everything). Stage durations are
	// still collected for every batch while a recorder is installed — the
	// handful of time.Now calls are cheap — so the slow-request exemplar
	// log misses nothing; sampling only bounds histogram lock traffic.
	SampleEvery int
	// SlowThreshold records a SlowRequest exemplar for every batch whose
	// stage total meets it, sampled or not (default 50ms; negative
	// disables the exemplar log).
	SlowThreshold time.Duration
	// SlowLogCap bounds the exemplar ring, newest kept (default 256).
	SlowLogCap int
}

// SpanRecorder aggregates spans from many goroutines: per-stage latency
// histograms (sampled) plus a bounded slow-request exemplar ring (exact).
// All methods are safe for concurrent use. A nil recorder means spans are
// off; call sites guard with one pointer test and touch no clocks.
type SpanRecorder struct {
	every   uint64
	slowThr time.Duration
	ctr     atomic.Uint64
	hists   [stageCount]*stats.Histogram
	sampled stats.Counter // spans observed into the histograms

	slowMu    sync.Mutex
	slowRing  []SlowRequest
	slowNext  int
	slowTotal uint64
}

// NewSpanRecorder builds a recorder per cfg.
func NewSpanRecorder(cfg SpanConfig) *SpanRecorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	switch {
	case cfg.SlowThreshold == 0:
		cfg.SlowThreshold = 50 * time.Millisecond
	case cfg.SlowThreshold < 0:
		cfg.SlowThreshold = 0
	}
	if cfg.SlowLogCap <= 0 {
		cfg.SlowLogCap = 256
	}
	r := &SpanRecorder{every: uint64(cfg.SampleEvery), slowThr: cfg.SlowThreshold}
	if cfg.SlowThreshold > 0 {
		r.slowRing = make([]SlowRequest, 0, cfg.SlowLogCap)
	}
	for i := range r.hists {
		r.hists[i] = stats.NewHistogram()
	}
	return r
}

// SampleNow draws from the shared 1-in-SampleEvery sequence: exactly one in
// every consecutive `every` calls returns true, across all goroutines.
func (r *SpanRecorder) SampleNow() bool {
	return r.ctr.Add(1)%r.every == 0
}

// SlowThreshold returns the exemplar threshold (0 when the log is disabled).
func (r *SpanRecorder) SlowThreshold() time.Duration { return r.slowThr }

// Observe records one stage sample directly — the cache-side entry point,
// where a stage is a whole operation rather than a batch segment.
func (r *SpanRecorder) Observe(st Stage, d time.Duration) {
	r.hists[st].Observe(d)
}

// Settle folds a finished span into the recorder: its stages land in the
// histograms when sampled says so, and a SlowRequest exemplar is recorded —
// regardless of sampling — when the stage total meets the threshold. id
// supplies the exemplar identity; it is only read on the slow path.
func (r *SpanRecorder) Settle(sp *Span, sampled bool, id SlowRequest) {
	if sampled {
		for i := range sp.durs {
			if i >= int(serverStageEnd) {
				break // cache stages observe themselves
			}
			r.hists[i].Observe(sp.durs[i])
		}
		r.sampled.Inc()
	}
	if r.slowThr <= 0 {
		return
	}
	total := sp.Total()
	if total < r.slowThr {
		return
	}
	id.At = time.Now()
	id.Total = total
	id.stages = sp.durs
	r.slowMu.Lock()
	if len(r.slowRing) < cap(r.slowRing) {
		r.slowRing = append(r.slowRing, id)
	} else {
		r.slowRing[r.slowNext] = id
		r.slowNext = (r.slowNext + 1) % cap(r.slowRing)
	}
	r.slowTotal++
	r.slowMu.Unlock()
}

// StageSnapshot returns stage st's histogram snapshot.
func (r *SpanRecorder) StageSnapshot(st Stage) stats.HistSnapshot {
	return r.hists[st].Snapshot()
}

// SampledCount returns how many spans were observed into the histograms.
func (r *SpanRecorder) SampledCount() uint64 { return r.sampled.Load() }

// SlowTotal returns how many slow exemplars were recorded over the
// recorder's lifetime (the ring retains only the newest SlowLogCap).
func (r *SpanRecorder) SlowTotal() uint64 {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	return r.slowTotal
}

// SlowRequests returns the retained exemplars, oldest first.
func (r *SpanRecorder) SlowRequests() []SlowRequest {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	out := make([]SlowRequest, 0, len(r.slowRing))
	out = append(out, r.slowRing[r.slowNext:]...)
	out = append(out, r.slowRing[:r.slowNext]...)
	return out
}

// WriteSlowLog renders the retained exemplars as indented JSON.
func (r *SpanRecorder) WriteSlowLog(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	reqs := r.SlowRequests()
	out := make([]*SlowRequest, len(reqs))
	for i := range reqs {
		out[i] = &reqs[i]
	}
	return enc.Encode(out)
}

// MetricsInto implements MetricSource: server stages register as
// server_stage_latency{stage=...}, cache stages as
// cache_stage_latency{stage=...}, plus the sampling and slow-log counters.
func (r *SpanRecorder) MetricsInto(reg *Registry, labels Labels) {
	for st := Stage(0); st < stageCount; st++ {
		name := "server_stage_latency"
		help := "Per-stage wall-clock request latency (sampled spans)"
		if st >= serverStageEnd {
			name = "cache_stage_latency"
			help = "Per-stage wall-clock cache-engine latency (sampled operations)"
		}
		reg.Histogram(name, help, labels.With("stage", st.String()), r.hists[st])
	}
	reg.Counter("span_sampled_total", "Request spans observed into the stage histograms", labels, &r.sampled)
	reg.CounterFunc("span_slow_requests_total", "Slow-request exemplars recorded", labels, r.SlowTotal)
}
