package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType identifies what happened. The set covers the lifecycle moments
// the paper's analysis hinges on: zone reclaim (resets), region seals
// (flushes), GC victim selection and its migrate/drop decisions, admission
// decisions, and region evictions.
type EventType uint8

// Event types.
const (
	// EvZoneReset: a zone was reset (Zone = zone index).
	EvZoneReset EventType = iota + 1
	// EvZoneFinish: a zone was finished / transitioned to full.
	EvZoneFinish
	// EvRegionSeal: the engine flushed a region buffer to the store
	// (Region = region id, Bytes = fill bytes).
	EvRegionSeal
	// EvGCVictim: the middle layer selected a GC victim zone
	// (Zone = victim, Bytes = live regions at selection).
	EvGCVictim
	// EvGCMigrate: GC migrated one live region out of the victim
	// (Zone = victim, Region = region id, Bytes = region size).
	EvGCMigrate
	// EvGCDrop: GC dropped a cold region via the co-design filter
	// (Zone = victim, Region = region id).
	EvGCDrop
	// EvAdmit: the engine accepted an insert (Bytes = item size).
	EvAdmit
	// EvReject: the admission policy rejected an insert (Bytes = item size).
	EvReject
	// EvEvict: the engine evicted a region (Region = region id,
	// Bytes = keys dropped from the index).
	EvEvict
)

// String names the event type for JSON export and diagnostics.
func (t EventType) String() string {
	switch t {
	case EvZoneReset:
		return "zone_reset"
	case EvZoneFinish:
		return "zone_finish"
	case EvRegionSeal:
		return "region_seal"
	case EvGCVictim:
		return "gc_victim"
	case EvGCMigrate:
		return "gc_migrate"
	case EvGCDrop:
		return "gc_drop"
	case EvAdmit:
		return "admit"
	case EvReject:
		return "reject"
	case EvEvict:
		return "evict"
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// Event is one trace record. T is simulated time; Zone and Region are -1
// when not applicable; Bytes carries the event's magnitude (see the type
// constants).
type Event struct {
	T      time.Duration
	Type   EventType
	Zone   int32
	Region int32
	Bytes  int64
}

// eventJSON is the export form: type as a name, time in nanoseconds.
type eventJSON struct {
	TimeNs int64  `json:"t_ns"`
	Type   string `json:"type"`
	Zone   int32  `json:"zone"`
	Region int32  `json:"region"`
	Bytes  int64  `json:"bytes"`
}

// TraceSink receives every event as it is emitted, after it is recorded in
// the ring. Implementations must be safe for concurrent calls when the
// traced layers run concurrently (the sharded frontend, parallel sweeps).
type TraceSink interface {
	TraceEvent(Event)
}

// Tracer is a bounded ring of Events. Tracing is opt-in: layers hold a
// *Tracer that is nil when disabled, and Emit on a nil receiver returns
// immediately — the disabled cost is one pointer test at the call site.
// When enabled, emission is a mutex-guarded ring append (no allocation).
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	start int    // oldest slot once the ring has wrapped
	n     int    // occupied slots
	total uint64 // lifetime emitted, including overwritten
	sink  TraceSink
}

// DefaultTraceCap bounds a tracer when the caller passes 0: enough for the
// full region/zone churn of any harness experiment without unbounded growth.
const DefaultTraceCap = 1 << 16

// NewTracer returns a tracer retaining the most recent cap events
// (cap <= 0 uses DefaultTraceCap).
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, cap)}
}

// SetSink attaches a sink receiving every subsequent event. Pass nil to
// detach.
func (t *Tracer) SetSink(s TraceSink) {
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// Emit records one event. Safe on a nil receiver (no-op), which is how
// layers express "tracing disabled" without a flag check.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
	} else {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
	}
	t.total++
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink.TraceEvent(e)
	}
}

// Total returns how many events were emitted over the tracer's lifetime,
// including ones the ring has since overwritten. Zero on a nil tracer.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events, oldest first. The slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Reset discards all retained events (the lifetime total is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.start, t.n = 0, 0
	t.mu.Unlock()
}

// WriteJSON exports the retained events as a JSON array, oldest first, with
// event types as names and timestamps in simulated nanoseconds.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	out := make([]eventJSON, len(events))
	for i, e := range events {
		out[i] = eventJSON{
			TimeNs: int64(e.T),
			Type:   e.Type.String(),
			Zone:   e.Zone,
			Region: e.Region,
			Bytes:  e.Bytes,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
