package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"znscache/internal/stats"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds. Histograms are exposed in Prometheus text as summaries
// (quantile series plus _sum and _count), derived from a consistent
// single-lock stats.HistSnapshot at scrape time.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as the Prometheus TYPE line does.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// metric is one registered series.
type metric struct {
	name    string
	help    string
	kind    Kind
	labels  Labels
	counter func() uint64    // KindCounter
	gauge   func() float64   // KindGauge
	hist    *stats.Histogram // KindHistogram
}

// key identifies a series: name plus rendered labels.
func (m *metric) key() string { return m.name + m.labels.String() }

// Sample is one gathered series value. Exactly one of Value (counters,
// gauges) or Hist (histograms) is meaningful, selected by Kind.
type Sample struct {
	Name   string
	Labels Labels
	Kind   Kind
	Value  float64
	Hist   stats.HistSnapshot
}

// Registry is a named, labeled collection of metric instruments. Instruments
// are registered by reference (the registry reads them live at gather time),
// so a layer's own accounting and the exposition can never disagree.
// Registering a series whose (name, labels) already exist replaces the old
// entry — rebuilding a rig re-binds its series rather than erroring, and the
// exposition never emits duplicate series.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byKey   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]int)}
}

// register installs m, replacing any series with the same name and labels.
func (r *Registry) register(m *metric) {
	k := m.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byKey[k]; ok {
		r.metrics[i] = m
		return
	}
	r.byKey[k] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Counter registers an existing stats.Counter under name.
func (r *Registry) Counter(name, help string, labels Labels, c *stats.Counter) {
	r.CounterFunc(name, help, labels, c.Load)
}

// CounterFunc registers a counter read through fn at gather time. fn must be
// safe to call concurrently with the instrumented code.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: KindCounter, labels: labels, counter: fn})
}

// Gauge registers a gauge read through fn at gather time. fn must be safe to
// call concurrently with the instrumented code.
func (r *Registry) Gauge(name, help string, labels Labels, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindGauge, labels: labels, gauge: fn})
}

// Histogram registers a latency histogram. It is exposed as a summary with
// quantiles 0.5/0.9/0.99/0.999 in seconds, plus _sum and _count.
func (r *Registry) Histogram(name, help string, labels Labels, h *stats.Histogram) {
	r.register(&metric{name: name, help: help, kind: KindHistogram, labels: labels, hist: h})
}

// WriteAmp registers a write-amplification accumulator as three series:
// <name>_host_bytes_total, <name>_media_bytes_total, and <name>_factor.
func (r *Registry) WriteAmp(name, help string, labels Labels, wa *stats.WriteAmp) {
	r.CounterFunc(name+"_host_bytes_total", help+" (bytes written by this layer's client)", labels, wa.Host)
	r.CounterFunc(name+"_media_bytes_total", help+" (bytes this layer wrote to the layer below)", labels, wa.Media)
	r.Gauge(name+"_factor", help+" (media/host ratio)", labels, wa.Factor)
}

// HitRatio registers a hit/miss accumulator as two counters and a ratio
// gauge: <name>_hits_total, <name>_misses_total, <name>_ratio.
func (r *Registry) HitRatio(name, help string, labels Labels, hr *stats.HitRatio) {
	r.CounterFunc(name+"_hits_total", help+" (hits)", labels, hr.Hits)
	r.CounterFunc(name+"_misses_total", help+" (misses)", labels, hr.Misses)
	r.Gauge(name+"_ratio", help+" (hits over lookups)", labels, hr.Ratio)
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.metrics)
}

// Gather reads every registered series. Counter and gauge samples carry
// Value; histogram samples carry a consistent Hist snapshot. Order is
// registration order.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()

	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter())
		case KindGauge:
			s.Value = m.gauge()
		case KindHistogram:
			s.Hist = m.hist.Snapshot()
		}
		out = append(out, s)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Series sharing a name are grouped under one
// HELP/TYPE header, as the format requires; group order follows first
// registration, series order within a group follows registration order, so
// the output is deterministic for a fixed registration sequence. Histogram
// quantiles and sums are reported in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()

	names := make([]string, 0, len(ms))
	byName := make(map[string][]*metric, len(ms))
	for _, m := range ms {
		if _, ok := byName[m.name]; !ok {
			names = append(names, m.name)
		}
		byName[m.name] = append(byName[m.name], m)
	}
	for _, name := range names {
		group := byName[name]
		head := group[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, head.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, head.kind); err != nil {
			return err
		}
		for _, m := range group {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one metric's sample lines.
func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.counter())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.gauge()))
		return err
	case KindHistogram:
		s := m.hist.Snapshot()
		for _, q := range [...]struct {
			q string
			v float64
		}{
			{"0.5", s.P50.Seconds()},
			{"0.9", s.P90.Seconds()},
			{"0.99", s.P99.Seconds()},
			{"0.999", s.P999.Seconds()},
		} {
			ql := m.labels.With("quantile", q.q)
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, ql, formatFloat(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, formatFloat(s.Sum.Seconds())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, s.Count)
		return err
	}
	return fmt.Errorf("obs: unknown metric kind %v", m.kind)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trippable representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
