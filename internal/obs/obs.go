// Package obs is the observability substrate for the simulated stack: a
// metrics registry every layer (zns, ssd, f2fs, middle, store, cache,
// sharded, lsm) registers its instruments into, a bounded typed event trace
// of simulated-time events, request-stage spans with a slow-request exemplar
// log, and live exposition over HTTP (Prometheus text format on /metrics,
// and pprof).
//
// The registry does not own the instruments — layers keep their existing
// atomic counters, write-amplification accumulators, and latency histograms
// (package stats), and register them here under stable names and labels.
// The per-layer Stats() methods therefore stay exact views over the same
// instruments the registry exposes: a scrape mid-run and a Stats() call read
// the same values.
//
// Everything here is safe for concurrent use. Registration typically happens
// at rig-build time while an HTTP scraper reads concurrently; the harness
// sweeps build rigs from a worker pool.
package obs

import "strings"

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Order is preserved in the exposition, so
// registration order determines series identity text.
type Labels []Label

// L builds a label set from alternating key/value strings:
// obs.L("layer", "zns", "scheme", "Region-Cache"). Panics on an odd count —
// label sets are always literal at call sites, so this is a build-time bug,
// not an input error.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs: L requires an even number of strings")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// With returns a copy of ls with one label appended. The receiver is never
// mutated, so a base label set can be shared across layers.
func (ls Labels) With(key, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	out = append(out, ls...)
	return append(out, Label{Key: key, Value: value})
}

// Get returns the value for key, or "" if absent.
func (ls Labels) Get(key string) string {
	for _, l := range ls {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// String renders the set in Prometheus brace form, e.g.
// {layer="zns",zone="3"}; an empty set renders as "".
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// MetricSource is implemented by layers that can register their instruments
// into a registry. The labels are appended to every series the source
// registers, letting the caller scope a source to a scheme/rig/shard.
type MetricSource interface {
	MetricsInto(r *Registry, labels Labels)
}
