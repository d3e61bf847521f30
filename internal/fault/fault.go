// Package fault injects device misbehaviour underneath the cache stack so
// the persistence story can be tested against more than a well-behaved
// simulator: transient read/write/reset errors, latency spikes, torn
// (partial) writes that leave a zone's write pointer mid-region, and crash
// points that make the device unreachable at a chosen write count —
// simulating process death with whatever happened to be durable at that
// instant.
//
// All decisions are drawn from one seeded PRNG, so a (seed, workload) pair
// replays the exact same fault schedule on every run and host — a failing
// crash-consistency seed is a reproducible bug report. The wrappers
// implement the same interfaces the real devices do (device.BlockDevice and
// zns.Zoned) and are threaded under all four schemes by harness.Build, so
// no layer above the device knows faults exist.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// Errors surfaced by injected faults.
var (
	// ErrInjected marks a transient injected failure; the operation may
	// succeed if retried.
	ErrInjected = errors.New("fault: injected device error")
	// ErrTorn marks a write that persisted only a prefix before failing.
	// It wraps ErrInjected (torn writes are retryable: the caller rewrites).
	ErrTorn = fmt.Errorf("%w: torn write", ErrInjected)
	// ErrCrash marks the crash point: the simulated process is dead and
	// every device operation fails until Revive. Not retryable.
	ErrCrash = errors.New("fault: device unreachable after simulated crash")
)

// Config parameterizes an Injector. All rates are per-operation
// probabilities in [0, 1]; zero disables that fault class.
type Config struct {
	// Seed drives every decision; runs with equal seeds and workloads see
	// identical fault schedules.
	Seed uint64
	// ReadErrorRate fails reads with ErrInjected.
	ReadErrorRate float64
	// WriteErrorRate fails writes with ErrInjected before any byte lands.
	WriteErrorRate float64
	// ResetErrorRate fails zone resets with ErrInjected.
	ResetErrorRate float64
	// TornWriteRate fails writes with ErrTorn after persisting a seeded
	// sector-aligned prefix — the distinctive ZNS hazard: the write pointer
	// advances partway and the zone no longer matches what any layer above
	// believes was written.
	TornWriteRate float64
	// LatencySpikeRate adds LatencySpike to an operation's service time,
	// modelling zone-management interference and pathological tail latency.
	LatencySpikeRate float64
	// LatencySpike is the added latency (default 2ms).
	LatencySpike time.Duration
	// CrashAfterWrites, when non-zero, makes the Nth device write operation
	// (and everything after it) fail with ErrCrash. The crashing write
	// itself persists a seeded prefix first — a torn final write.
	CrashAfterWrites uint64
}

func (c *Config) fillDefaults() {
	if c.LatencySpike == 0 {
		c.LatencySpike = 2 * time.Millisecond
	}
}

// Injector is the shared decision engine behind the device wrappers. One
// injector may back several wrapped devices; decisions are serialized, so
// the fault schedule is a function of the global operation order.
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	rng     *sim.Rand
	writes  uint64
	crashed bool

	// Counters, exposed via MetricsInto as fault_injected_total.
	Injected   stats.Counter // all injected faults, every kind
	ReadErrs   stats.Counter
	WriteErrs  stats.Counter
	ResetErrs  stats.Counter
	TornWrites stats.Counter
	Spikes     stats.Counter
	Crashes    stats.Counter // ops refused because the device is crashed
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) *Injector {
	cfg.fillDefaults()
	return &Injector{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
}

// Crashed reports whether the crash point has been reached.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Revive lifts the crash condition: the recovery path re-attaches to the
// device after the simulated process restart. Fault rates stay armed; the
// write-count trigger does not re-fire.
func (i *Injector) Revive() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed = false
	i.cfg.CrashAfterWrites = 0
}

// ArmCrash (re)arms the crash trigger: the device dies on the n-th write
// operation, counted from the injector's creation. The crash harness uses
// it to place the crash point after the snapshot cut, whose absolute write
// count it cannot know when the injector is built.
func (i *Injector) ArmCrash(afterWrites uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cfg.CrashAfterWrites = afterWrites
}

// Writes returns how many device write operations the injector has seen.
func (i *Injector) Writes() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.writes
}

// decision is the outcome of one operation's draw.
type decision struct {
	err   error
	spike time.Duration
	// tornSectors is the prefix persisted by a torn write, in sectors;
	// -1 means the full write proceeds.
	tornSectors int
}

// decideRead draws the fate of a read operation.
func (i *Injector) decideRead() decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		i.Crashes.Inc()
		return decision{err: ErrCrash, tornSectors: -1}
	}
	d := decision{tornSectors: -1}
	if i.cfg.ReadErrorRate > 0 && i.rng.Float64() < i.cfg.ReadErrorRate {
		i.Injected.Inc()
		i.ReadErrs.Inc()
		d.err = ErrInjected
		return d
	}
	d.spike = i.decideSpikeLocked()
	return d
}

// decideWrite draws the fate of a write of the given sector count. It also
// advances the crash trigger: the CrashAfterWrites-th write crashes the
// device, persisting a seeded prefix first.
func (i *Injector) decideWrite(sectors int) decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		i.Crashes.Inc()
		return decision{err: ErrCrash, tornSectors: 0}
	}
	i.writes++
	if i.cfg.CrashAfterWrites > 0 && i.writes >= i.cfg.CrashAfterWrites {
		i.crashed = true
		i.Injected.Inc()
		i.Crashes.Inc()
		// The dying write lands a random prefix: the torn final write a
		// real power cut leaves behind.
		return decision{err: ErrCrash, tornSectors: i.prefixLocked(sectors)}
	}
	d := decision{tornSectors: -1}
	if i.cfg.WriteErrorRate > 0 && i.rng.Float64() < i.cfg.WriteErrorRate {
		i.Injected.Inc()
		i.WriteErrs.Inc()
		d.err = ErrInjected
		d.tornSectors = 0
		return d
	}
	if i.cfg.TornWriteRate > 0 && i.rng.Float64() < i.cfg.TornWriteRate {
		i.Injected.Inc()
		i.TornWrites.Inc()
		d.err = ErrTorn
		d.tornSectors = i.prefixLocked(sectors)
		return d
	}
	d.spike = i.decideSpikeLocked()
	return d
}

// decideReset draws the fate of a zone reset.
func (i *Injector) decideReset() decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		i.Crashes.Inc()
		return decision{err: ErrCrash, tornSectors: -1}
	}
	d := decision{tornSectors: -1}
	if i.cfg.ResetErrorRate > 0 && i.rng.Float64() < i.cfg.ResetErrorRate {
		i.Injected.Inc()
		i.ResetErrs.Inc()
		d.err = ErrInjected
		return d
	}
	d.spike = i.decideSpikeLocked()
	return d
}

// decideMeta gates metadata ops (finish, close, zone info writes) on the
// crash state only; they never fail transiently.
func (i *Injector) decideMeta() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		i.Crashes.Inc()
		return ErrCrash
	}
	return nil
}

func (i *Injector) decideSpikeLocked() time.Duration {
	if i.cfg.LatencySpikeRate > 0 && i.rng.Float64() < i.cfg.LatencySpikeRate {
		i.Injected.Inc()
		i.Spikes.Inc()
		return i.cfg.LatencySpike
	}
	return 0
}

// prefixLocked picks how many sectors of an n-sector write survive a torn
// write: uniform in [0, n).
func (i *Injector) prefixLocked(sectors int) int {
	if sectors <= 0 {
		return 0
	}
	return i.rng.Intn(sectors)
}

// MetricsInto implements obs.MetricSource: one fault_injected_total series
// per fault kind plus the all-kinds total, matching how the cache side
// counts the quarantines those faults cause.
func (i *Injector) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("layer", "fault")
	r.Counter("fault_injected_total", "Faults injected, all kinds", ls, &i.Injected)
	r.Counter("fault_injected_total", "Injected read errors", ls.With("kind", "read_error"), &i.ReadErrs)
	r.Counter("fault_injected_total", "Injected write errors", ls.With("kind", "write_error"), &i.WriteErrs)
	r.Counter("fault_injected_total", "Injected reset errors", ls.With("kind", "reset_error"), &i.ResetErrs)
	r.Counter("fault_injected_total", "Injected torn writes", ls.With("kind", "torn_write"), &i.TornWrites)
	r.Counter("fault_injected_total", "Injected latency spikes", ls.With("kind", "latency_spike"), &i.Spikes)
	r.Counter("fault_crash_refusals_total", "Operations refused after the crash point", ls, &i.Crashes)
}
