package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/cache"
	"znscache/internal/stats"
	"znscache/internal/workload"
)

// LoadConfig parameterizes a load-generation run against a cacheserver.
type LoadConfig struct {
	// Addr is the cacheserver address. Required.
	Addr string
	// Conns is the number of concurrent connections (default 8).
	Conns int
	// Pipeline is the number of requests in flight per connection — each
	// batch is written in one flush and its responses read together
	// (default 8; 1 disables pipelining).
	Pipeline int
	// Ops is the total request budget for the closed loop. When 0 the run
	// is time-bounded by Duration instead.
	Ops uint64
	// Duration bounds a time-based run (default 3s when Ops is 0).
	Duration time.Duration
	// TargetQPS > 0 selects the open loop: batches are launched on a fixed
	// schedule at this aggregate rate, and latency is measured from each
	// batch's scheduled time, so queueing delay when the server falls
	// behind is charged to the server (no coordinated omission).
	TargetQPS float64
	// Keys is the key-space size (default 64k).
	Keys int64
	// Theta is the zipf skew (default 0.99).
	Theta float64
	// GetPct/SetPct/DelPct is the op mix (default 50/30/20, the bc mix).
	GetPct, SetPct, DelPct int
	// ValueSizes/ValueWeights describe the object-size distribution
	// (defaults follow workload.BCConfig).
	ValueSizes   []int
	ValueWeights []int
	// ValueDist, when set, replaces ValueSizes/ValueWeights with a
	// continuous size distribution (e.g. a bounded Pareto for CDN-style
	// heavy-tailed values). The payload template is sized to its MaxLen.
	ValueDist workload.SizeDist
	// Seed decorrelates per-connection generators (splitmix64-derived).
	Seed uint64
	// FillOnMiss inserts the object after a get miss (read-through fill,
	// how CacheBench drives a cache). Fills ride in the next batch.
	FillOnMiss bool
	// Exptime is sent with every set: ≤ 30 days is a relative TTL in
	// seconds, larger values are absolute unix times (memcached semantics).
	// Zero stores without expiry.
	Exptime int64
	// Multiget groups up to N consecutive gets from the workload stream into
	// one multi-key "get k1 k2 ..." request. ≤ 1 disables grouping and every
	// get goes out as its own command. Grouping reduces parse overhead and
	// lets the server serve the whole group from one read pass.
	Multiget int
	// Progress > 0 samples the run into intervals of this length: each
	// interval's throughput and interval-local p50/p99 are appended to
	// LoadResult.Timeline, and a one-line readout is written to ProgressW as
	// the run goes. Zero disables both (no interval histogram is maintained).
	Progress time.Duration
	// ProgressW receives the periodic readout lines; nil keeps the timeline
	// but prints nothing.
	ProgressW io.Writer
}

func (c *LoadConfig) fillDefaults() {
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 8
	}
	if c.Ops == 0 && c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 64 << 10
	}
}

// LoadResult is one run's outcome, and the serve report's row: its json
// tags are the wire form of the "serve" section (durations as integer
// nanoseconds). Latencies are wall-clock request (batch round-trip) times
// measured at the client; every request in a batch observes the batch
// latency.
type LoadResult struct {
	Mode      string  `json:"mode"` // "closed" or "open"
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline"`
	TargetQPS float64 `json:"target_qps,omitempty"`
	// AchievedQPS is Ops over Elapsed.
	AchievedQPS float64 `json:"achieved_qps"`

	Ops     uint64 `json:"ops"` // requests sent (including fills)
	Gets    uint64 `json:"gets"`
	Sets    uint64 `json:"sets"`
	Deletes uint64 `json:"deletes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Fills   uint64 `json:"fills"`  // read-through fills issued after misses
	Errors  uint64 `json:"errors"` // transport failures and server-reported error replies
	// HitRatio is Hits over get lookups (0 when no gets completed).
	HitRatio float64 `json:"hit_ratio"`

	Elapsed time.Duration `json:"elapsed_ns"`
	// P50 … Max summarize the whole run's request latency histogram.
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Mean time.Duration `json:"mean_ns"`
	Max  time.Duration `json:"max_ns"`

	// Multiget echoes LoadConfig.Multiget (0/1 when grouping was off).
	Multiget int `json:"multiget,omitempty"`
	// GetBatchSizes counts issued get commands by the number of keys they
	// carried: GetBatchSizes[n] multi-key gets went out with n keys each
	// (n == 1 means a plain single-key get). Empty when no gets were sent.
	GetBatchSizes map[int]uint64 `json:"get_batch_sizes,omitempty"`

	// ValueSizeBuckets histograms the value sizes of acknowledged sets
	// (fills included) into power-of-two buckets: ValueSizeBuckets[b]
	// counts sets whose payload length n satisfied b/2 < n <= b. Under a
	// heavy-tailed -valdist this is how the report shows the size mix the
	// server actually stored. Empty when no sets completed.
	ValueSizeBuckets map[int]uint64 `json:"value_size_buckets,omitempty"`

	// Timeline holds one entry per LoadConfig.Progress interval (nil when
	// progress sampling was off). Intervals are disjoint: each entry's
	// latency percentiles cover only the requests completed in that window,
	// so the series shows warmup, GC stalls, and saturation over the run in
	// a way the whole-run histogram cannot.
	Timeline []IntervalStat `json:"timeline,omitempty"`
}

// IntervalStat is one progress interval's headline numbers.
type IntervalStat struct {
	// T is the interval's end, measured from the start of the run.
	T time.Duration `json:"t_ns"`
	// Ops is the number of requests completed in the interval.
	Ops uint64 `json:"ops"`
	// QPS is Ops over the interval length.
	QPS float64 `json:"qps"`
	// P50/P99 are interval-local request latencies.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// loadCounters aggregates across connection goroutines.
type loadCounters struct {
	ops, gets, sets, deletes  atomic.Uint64
	hits, misses, fills, errs atomic.Uint64
}

// Run drives the configured load against the server and reports the result.
// Closed loop (TargetQPS == 0): every connection keeps Pipeline requests in
// flight back to back, measuring throughput at full backpressure. Open loop
// (TargetQPS > 0): batches launch on a fixed schedule and latency includes
// any time a batch spent waiting behind a slow server.
func Run(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("server: LoadConfig.Addr is required")
	}
	cfg.fillDefaults()

	// Each connection observes into its own histogram and batch-size counts,
	// merged once when the connection finishes: at high pipeline depths a
	// single shared histogram becomes the loadgen's own contention point and
	// understates the server's throughput.
	hist := stats.NewHistogram()
	sizes := make(map[int]uint64)
	valBuckets := make(map[int]uint64)
	var mergeMu sync.Mutex
	var ctr loadCounters
	var budget atomic.Int64
	budget.Store(int64(cfg.Ops))

	mode := "closed"
	var interval time.Duration
	if cfg.TargetQPS > 0 {
		mode = "open"
		// Aggregate rate split across connections, one batch per tick.
		perConn := cfg.TargetQPS / float64(cfg.Conns)
		interval = time.Duration(float64(cfg.Pipeline) / perConn * float64(time.Second))
	}

	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	// Progress sampling: one shared interval histogram fed with a single
	// ObserveN per batch (not per request), so the reporter's lock is taken
	// orders of magnitude less often than the per-connection histograms'.
	var prog *stats.Histogram
	var progDone chan struct{}
	var progWG sync.WaitGroup
	var timeline []IntervalStat
	if cfg.Progress > 0 {
		prog = stats.NewHistogram()
		progDone = make(chan struct{})
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			timeline = progressLoop(&cfg, prog, &ctr, start, progDone)
		}()
	}

	var wg sync.WaitGroup
	var dialErr atomic.Value
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(cfg.Addr)
			if err != nil {
				dialErr.Store(err)
				return
			}
			defer cl.Close() //nolint:errcheck
			gen := workload.NewBC(workload.BCConfig{
				Keys:         cfg.Keys,
				GetPct:       cfg.GetPct,
				SetPct:       cfg.SetPct,
				DelPct:       cfg.DelPct,
				Theta:        cfg.Theta,
				ValueSizes:   cfg.ValueSizes,
				ValueWeights: cfg.ValueWeights,
				ValueDist:    cfg.ValueDist,
				Seed:         cache.ShardSeed(cfg.Seed, i),
			})
			connHist := stats.NewHistogram()
			connSizes := make(map[int]uint64)
			connVals := make(map[int]uint64)
			runConn(cl, &cfg, gen, connHist, connSizes, connVals, prog, &ctr, &budget, deadline, start, interval, i)
			mergeMu.Lock()
			hist.Merge(connHist)
			for n, c := range connSizes {
				sizes[n] += c
			}
			for n, c := range connVals {
				valBuckets[n] += c
			}
			mergeMu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if progDone != nil {
		close(progDone)
		progWG.Wait()
	}

	if err, ok := dialErr.Load().(error); ok {
		return nil, fmt.Errorf("server: loadgen dial: %w", err)
	}
	lat := hist.Snapshot()
	res := &LoadResult{
		Mode:      mode,
		Conns:     cfg.Conns,
		Pipeline:  cfg.Pipeline,
		TargetQPS: cfg.TargetQPS,
		Ops:       ctr.ops.Load(),
		Gets:      ctr.gets.Load(),
		Sets:      ctr.sets.Load(),
		Deletes:   ctr.deletes.Load(),
		Hits:      ctr.hits.Load(),
		Misses:    ctr.misses.Load(),
		Fills:     ctr.fills.Load(),
		Errors:    ctr.errs.Load(),
		Elapsed:   elapsed,
		P50:       lat.P50,
		P90:       lat.P90,
		P99:       lat.P99,
		P999:      lat.P999,
		Mean:      lat.Mean,
		Max:       lat.Max,
		Multiget:  cfg.Multiget,
	}
	if res.Hits+res.Misses > 0 {
		res.HitRatio = float64(res.Hits) / float64(res.Hits+res.Misses)
	}
	if len(sizes) > 0 {
		res.GetBatchSizes = sizes
	}
	if len(valBuckets) > 0 {
		res.ValueSizeBuckets = valBuckets
	}
	res.Timeline = timeline
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Ops) / elapsed.Seconds()
	}
	return res, nil
}

// progressLoop is the interval reporter: every cfg.Progress it drains the
// shared interval histogram, derives the window's throughput from the op
// counter delta, records an IntervalStat, and (when ProgressW is set) prints
// a one-line readout. A final partial interval is flushed on shutdown when it
// saw any traffic.
func progressLoop(cfg *LoadConfig, prog *stats.Histogram, ctr *loadCounters,
	start time.Time, done chan struct{}) []IntervalStat {

	tick := time.NewTicker(cfg.Progress)
	defer tick.Stop()
	var timeline []IntervalStat
	var lastT time.Duration
	var lastOps, lastHits, lastMisses uint64
	report := func(final bool) {
		t := time.Since(start)
		ops := ctr.ops.Load()
		hits, misses := ctr.hits.Load(), ctr.misses.Load()
		snap := prog.SnapshotAndReset()
		dOps := ops - lastOps
		if final && dOps == 0 {
			return // nothing happened since the last full interval
		}
		qps := 0.0
		if dt := t - lastT; dt > 0 {
			qps = float64(dOps) / dt.Seconds()
		}
		timeline = append(timeline, IntervalStat{
			T: t, Ops: dOps, QPS: qps, P50: snap.P50, P99: snap.P99,
		})
		if cfg.ProgressW != nil {
			line := fmt.Sprintf("[loadgen] t=%-6s ops=%-8d qps=%-8.0f p50=%-9s p99=%-9s",
				t.Round(100*time.Millisecond), dOps, qps,
				snap.P50.Round(time.Microsecond), snap.P99.Round(time.Microsecond))
			if dl := (hits - lastHits) + (misses - lastMisses); dl > 0 {
				line += fmt.Sprintf(" hit=%.1f%%", float64(hits-lastHits)/float64(dl)*100)
			}
			fmt.Fprintln(cfg.ProgressW, line)
		}
		lastT, lastOps, lastHits, lastMisses = t, ops, hits, misses
	}
	for {
		select {
		case <-tick.C:
			report(false)
		case <-done:
			report(true)
			return timeline
		}
	}
}

// batchOp remembers what each queued request was, to classify its response.
type batchOp struct {
	kind   workload.OpKind
	key    string
	valLen int
	isFill bool
}

// pow2Bucket returns the power-of-two histogram bucket for a payload length:
// the smallest power of two >= n (minimum 1).
func pow2Bucket(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// runConn is one connection's request loop. hist, sizes, and valBuckets are
// this connection's private accumulators; the caller merges them afterwards.
func runConn(cl *Client, cfg *LoadConfig, gen *workload.BC, hist *stats.Histogram,
	sizes map[int]uint64, valBuckets map[int]uint64, prog *stats.Histogram,
	ctr *loadCounters, budget *atomic.Int64,
	deadline, start time.Time, interval time.Duration, connIdx int) {

	// payload is a shared template the value bytes are sliced from; the
	// client's buffered writer copies on write, so sharing is safe. 16 KiB
	// covers workload.BCConfig's default size distribution.
	maxVal := 16384
	for _, sz := range cfg.ValueSizes {
		if sz > maxVal {
			maxVal = sz
		}
	}
	if cfg.ValueDist != nil {
		if m := cfg.ValueDist.MaxLen(); m > maxVal {
			maxVal = m
		}
	}
	payload := make([]byte, maxVal)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	// Open-loop schedule, staggered so connections don't tick in phase.
	next := start
	if interval > 0 {
		next = start.Add(interval * time.Duration(connIdx) / time.Duration(cfg.Conns))
	}

	var fills []batchOp
	batch := make([]batchOp, 0, cfg.Pipeline)
	var mkeys []string // reused key slice for multiget groups
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		// Claim this batch against the op budget (closed-loop Ops mode).
		want := cfg.Pipeline
		if cfg.Ops > 0 {
			left := budget.Add(-int64(want))
			if left < 0 {
				want += int(left) // partial final batch
				if want <= 0 {
					return
				}
			}
		}

		batch = batch[:0]
		// Fills from the previous batch ride ahead of fresh ops.
		for len(fills) > 0 && len(batch) < want {
			batch = append(batch, fills[0])
			fills = fills[1:]
		}
		for len(batch) < want {
			op := gen.Next()
			batch = append(batch, batchOp{kind: op.Kind, key: op.Key, valLen: op.ValLen})
		}
		for i := 0; i < len(batch); i++ {
			b := batch[i]
			switch b.kind {
			case workload.OpGet:
				// Group this run of consecutive gets into one multi-key
				// request, up to the configured width. The server expands
				// responses per key in request order, so the index-aligned
				// classification below still matches batch[j].
				run := 1
				if cfg.Multiget > 1 {
					for i+run < len(batch) && run < cfg.Multiget &&
						batch[i+run].kind == workload.OpGet {
						run++
					}
				}
				if run == 1 {
					cl.QueueGet(b.key, false)
				} else {
					mkeys = mkeys[:0]
					for _, g := range batch[i : i+run] {
						mkeys = append(mkeys, g.key)
					}
					cl.QueueGetMulti(mkeys) // copies keys; mkeys is reusable
				}
				sizes[run]++
				i += run - 1
			case workload.OpSet:
				n := b.valLen
				if n > len(payload) {
					n = len(payload)
				}
				cl.QueueSet(b.key, 0, cfg.Exptime, payload[:n])
			case workload.OpDelete:
				cl.QueueDelete(b.key)
			}
		}

		sentAt := time.Now()
		if interval > 0 {
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			sentAt = next // open loop: charge schedule slip to the server
			next = next.Add(interval)
		}
		rs, err := cl.Exchange()
		lat := time.Since(sentAt)
		if err != nil {
			ctr.errs.Add(1)
			return // transport gone; this connection is done
		}
		if prog != nil {
			prog.ObserveN(lat, len(rs))
		}
		for j, r := range rs {
			b := batch[j]
			hist.Observe(lat)
			ctr.ops.Add(1)
			if r.Err != "" {
				ctr.errs.Add(1)
				continue
			}
			switch b.kind {
			case workload.OpGet:
				ctr.gets.Add(1)
				if r.Hit {
					ctr.hits.Add(1)
				} else {
					ctr.misses.Add(1)
					if cfg.FillOnMiss {
						fills = append(fills, batchOp{
							kind: workload.OpSet, key: b.key,
							valLen: b.valLen, isFill: true,
						})
					}
				}
			case workload.OpSet:
				ctr.sets.Add(1)
				n := b.valLen
				if n > len(payload) {
					n = len(payload) // what QueueSet actually sent
				}
				valBuckets[pow2Bucket(n)]++
				if b.isFill {
					ctr.fills.Add(1)
				}
			case workload.OpDelete:
				ctr.deletes.Add(1)
			}
		}
	}
}
