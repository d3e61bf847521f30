package server

import (
	"strconv"
	"sync/atomic"

	"znscache/internal/obs"
	"znscache/internal/stats"
)

// metrics holds the server's own instruments. They are registered by
// reference (the obs convention), so a /metrics scrape and the stats command
// read the very same atomics the hot path increments.
type metrics struct {
	connsTotal stats.Counter // connections accepted over the lifetime
	connsOpen  atomic.Int64  // currently served connections

	gets    stats.Counter // get/gets key lookups
	sets    stats.Counter // set commands
	deletes stats.Counter // delete commands
	other   stats.Counter // stats/version/unknown commands

	getHits   stats.Counter
	getMisses stats.Counter

	bytesIn  stats.Counter // raw socket bytes read
	bytesOut stats.Counter // raw socket bytes written
	flushes  stats.Counter // response flushes (≪ ops when pipelining works)

	protoErrors  stats.Counter // malformed commands (connection may survive)
	panics       stats.Counter // recovered handler panics (always a bug)
	slowRequests stats.Counter // requests at or above SlowThreshold

	batches        stats.Counter // executed pipeline batches
	batchOps       stats.Counter // ops across all executed batches
	dispatchPhases stats.Counter // conflict-free phases executed (sharded path)
	dispatchGroups stats.Counter // shard write groups executed (sharded path)
	// batchSizes is a histogram of ops-per-batch with bucket upper bounds
	// batchSizeBounds (last bucket is +Inf): how much pipelining the serving
	// path actually sees.
	batchSizes [len(batchSizeBounds) + 1]stats.Counter

	reqLatency *stats.Histogram // wall-clock request latency, all verbs
	// reqLatVerb splits request latency by verb (indexed by verbGet/
	// verbSet/verbDelete) so the hit-path and write-path tails are
	// separable on /metrics; msg/stats/version ops count only in the
	// aggregate.
	reqLatVerb [3]*stats.Histogram
}

// reqLatVerb indices.
const (
	verbGet = iota
	verbSet
	verbDelete
)

var verbNames = [3]string{"get", "set", "delete"}

// batchSizeBounds are the inclusive upper bounds of the batch-size buckets.
var batchSizeBounds = [...]int{1, 2, 4, 8, 16, 32, 64, 128}

func (m *metrics) observeBatchSize(n int) {
	for i, b := range batchSizeBounds {
		if n <= b {
			m.batchSizes[i].Inc()
			return
		}
	}
	m.batchSizes[len(batchSizeBounds)].Inc()
}

func (m *metrics) init() {
	m.reqLatency = stats.NewHistogram()
	for i := range m.reqLatVerb {
		m.reqLatVerb[i] = stats.NewHistogram()
	}
}

// MetricsInto implements obs.MetricSource: the server's instruments register
// under server_* names with the caller's labels, alongside the cache and
// device layers sharing the registry.
func (s *Server) MetricsInto(r *obs.Registry, labels obs.Labels) {
	m := &s.m
	r.Counter("server_connections_total", "TCP connections accepted", labels, &m.connsTotal)
	r.Gauge("server_connections_open", "Currently served connections", labels,
		func() float64 { return float64(m.connsOpen.Load()) })
	r.Counter("server_ops_total", "Requests served by verb", labels.With("verb", "get"), &m.gets)
	r.Counter("server_ops_total", "Requests served by verb", labels.With("verb", "set"), &m.sets)
	r.Counter("server_ops_total", "Requests served by verb", labels.With("verb", "delete"), &m.deletes)
	r.Counter("server_ops_total", "Requests served by verb", labels.With("verb", "other"), &m.other)
	r.Counter("server_get_hits_total", "get lookups that found the key", labels, &m.getHits)
	r.Counter("server_get_misses_total", "get lookups that missed", labels, &m.getMisses)
	r.Counter("server_bytes_in_total", "Bytes read from clients", labels, &m.bytesIn)
	r.Counter("server_bytes_out_total", "Bytes written to clients", labels, &m.bytesOut)
	r.Counter("server_flushes_total", "Response flushes (one per pipelined batch)", labels, &m.flushes)
	r.Counter("server_protocol_errors_total", "Malformed client commands", labels, &m.protoErrors)
	r.Counter("server_panics_total", "Recovered request-handler panics", labels, &m.panics)
	r.Counter("server_slow_requests_total", "Requests at or above the slow threshold", labels, &m.slowRequests)
	r.Counter("server_batches_total", "Pipeline batches executed", labels, &m.batches)
	r.Counter("server_batch_ops_total", "Requests across executed batches", labels, &m.batchOps)
	r.Counter("server_dispatch_phases_total", "Conflict-free batch phases executed", labels, &m.dispatchPhases)
	r.Counter("server_dispatch_groups_total", "Shard write groups executed", labels, &m.dispatchGroups)
	for i := range m.batchSizes {
		le := "+Inf"
		if i < len(batchSizeBounds) {
			le = strconv.Itoa(batchSizeBounds[i])
		}
		r.Counter("server_batch_size_bucket", "Batch-size distribution (ops per executed batch)",
			labels.With("le", le), &m.batchSizes[i])
	}
	r.Histogram("server_request_latency", "Wall-clock request latency", labels, m.reqLatency)
	for i, h := range m.reqLatVerb {
		r.Histogram("server_request_latency", "Wall-clock request latency",
			labels.With("verb", verbNames[i]), h)
	}
	if s.cfg.Spans != nil {
		s.cfg.Spans.MetricsInto(r, labels)
	}
}
