package obs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/stats"
)

// SLO tracking: each verb gets a latency objective ("99.9% of gets under
// 2ms") tracked as good/total counters. A background ticker turns counter
// deltas into an error-budget burn rate — burn 1.0 means the budget is being
// consumed exactly as provisioned; sustained burn above the trigger captures
// a CPU+mutex pprof profile to disk so the cause of an SLO violation is
// recorded while it is happening, not reconstructed afterwards.

// Objective is one verb's latency SLO: Goal of requests must complete within
// Target.
type Objective struct {
	Verb   string
	Target time.Duration
	Goal   float64 // e.g. 0.999
}

// ParseObjectives parses a comma-separated objective list of the form
// "get=2ms@0.999,set=10ms@0.99". The goal defaults to 0.999 when the @ part
// is omitted. Each verb may appear once: the tracker keeps one objective
// per verb, so a second would be silently shadowed.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		verb, spec, ok := strings.Cut(part, "=")
		verb = strings.ToLower(strings.TrimSpace(verb))
		if !ok || verb == "" {
			return nil, fmt.Errorf("slo: %q: want verb=latency[@goal]", part)
		}
		if seen[verb] {
			return nil, fmt.Errorf("slo: %q: verb %q already has an objective", part, verb)
		}
		seen[verb] = true
		latStr, goalStr, hasGoal := strings.Cut(spec, "@")
		target, err := time.ParseDuration(latStr)
		if err != nil || target <= 0 {
			return nil, fmt.Errorf("slo: %q: bad latency %q", part, latStr)
		}
		goal := 0.999
		if hasGoal {
			goal, err = strconv.ParseFloat(goalStr, 64)
			// Written so NaN fails too: every comparison with NaN is false.
			if err != nil || !(goal > 0 && goal < 1) {
				return nil, fmt.Errorf("slo: %q: goal must be in (0,1)", part)
			}
		}
		out = append(out, Objective{Verb: verb, Target: target, Goal: goal})
	}
	return out, nil
}

// SLOVerb tracks one verb's objective. The serving path holds a *SLOVerb
// resolved once at startup and calls ObserveN per batch; a nil receiver is a
// no-op so unconfigured verbs cost one branch.
type SLOVerb struct {
	obj   Objective
	good  stats.Counter
	total stats.Counter

	// Window state, owned by the tracker tick.
	lastGood  uint64
	lastTotal uint64
	burn      atomic.Uint64 // math.Float64bits of the latest window's burn
	hotSince  int           // consecutive windows at/above the trigger
}

// ObserveN counts n requests of latency d against the objective. Safe on a
// nil receiver.
func (v *SLOVerb) ObserveN(d time.Duration, n int) {
	if v == nil || n <= 0 {
		return
	}
	v.total.Add(uint64(n))
	if d <= v.obj.Target {
		v.good.Add(uint64(n))
	}
}

// BurnRate returns the last window's error-budget burn rate: the fraction of
// requests violating the objective divided by the budgeted fraction (1−goal).
// 0 until the first tick with traffic.
func (v *SLOVerb) BurnRate() float64 {
	return floatFromBits(v.burn.Load())
}

// Objective returns the verb's configured objective.
func (v *SLOVerb) Objective() Objective { return v.obj }

// SLOConfig parameterizes a tracker beyond its objectives.
type SLOConfig struct {
	Objectives []Objective
	// Window is the burn-rate evaluation interval (default 5s).
	Window time.Duration
	// BurnTrigger arms profile capture when any verb's burn rate meets it
	// (default 2.0 — consuming budget at twice the provisioned rate).
	BurnTrigger float64
	// BurnWindows is how many consecutive hot windows constitute
	// "sustained" burn (default 3).
	BurnWindows int
	// ProfileDir receives the captured profiles; empty disables capture.
	ProfileDir string
	// ProfileDuration is the CPU profile length (default 5s).
	ProfileDuration time.Duration
}

// SLOTracker owns the per-verb objectives, the burn-rate ticker, and the
// sustained-burn profile trigger.
type SLOTracker struct {
	cfg   SLOConfig
	verbs []*SLOVerb

	mu        sync.Mutex // guards window state across tick vs Gather reads
	capturing atomic.Bool
	captures  stats.Counter

	stop chan struct{}
	done chan struct{}
}

// NewSLOTracker builds a tracker; nil if no objectives are configured.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if len(cfg.Objectives) == 0 {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Second
	}
	if cfg.BurnTrigger <= 0 {
		cfg.BurnTrigger = 2.0
	}
	if cfg.BurnWindows <= 0 {
		cfg.BurnWindows = 3
	}
	if cfg.ProfileDuration <= 0 {
		cfg.ProfileDuration = 5 * time.Second
	}
	t := &SLOTracker{cfg: cfg}
	for _, o := range cfg.Objectives {
		t.verbs = append(t.verbs, &SLOVerb{obj: o})
	}
	return t
}

// Verb returns the tracker's handle for verb (nil when untracked, or when
// the tracker itself is nil — callers thread the nil straight through to
// SLOVerb.ObserveN).
func (t *SLOTracker) Verb(verb string) *SLOVerb {
	if t == nil {
		return nil
	}
	for _, v := range t.verbs {
		if v.obj.Verb == verb {
			return v
		}
	}
	return nil
}

// Start launches the burn-rate ticker. Safe on a nil tracker.
func (t *SLOTracker) Start() {
	if t == nil || t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(t.cfg.Window)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.tick()
			}
		}
	}()
}

// Stop halts the ticker. Safe on a nil or never-started tracker.
func (t *SLOTracker) Stop() {
	if t == nil || t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop = nil
}

// tick closes one burn-rate window: computes each verb's burn from the
// counter deltas and fires the profile trigger on sustained burn.
func (t *SLOTracker) tick() {
	t.mu.Lock()
	sustained := false
	for _, v := range t.verbs {
		good, total := v.good.Load(), v.total.Load()
		dGood, dTotal := good-v.lastGood, total-v.lastTotal
		v.lastGood, v.lastTotal = good, total
		if dTotal == 0 {
			v.burn.Store(floatBits(0))
			v.hotSince = 0
			continue
		}
		bad := float64(dTotal-dGood) / float64(dTotal)
		burn := bad / (1 - v.obj.Goal)
		v.burn.Store(floatBits(burn))
		if burn >= t.cfg.BurnTrigger {
			v.hotSince++
			if v.hotSince >= t.cfg.BurnWindows {
				sustained = true
			}
		} else {
			// Recovery rearms the trigger for this verb.
			v.hotSince = 0
		}
	}
	t.mu.Unlock()
	if sustained {
		t.captureProfiles()
	}
}

// captureProfiles writes a CPU and a mutex profile to ProfileDir, at most
// one capture in flight; re-trigger requires the burn to recover first
// (hotSince resets below the trigger) and then sustain again.
func (t *SLOTracker) captureProfiles() {
	if t.cfg.ProfileDir == "" || !t.capturing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.capturing.Store(false)
		stamp := time.Now().UTC().Format("20060102T150405")
		if err := os.MkdirAll(t.cfg.ProfileDir, 0o755); err != nil {
			return
		}
		cpuPath := filepath.Join(t.cfg.ProfileDir, "slo_burn_cpu_"+stamp+".pprof")
		if f, err := os.Create(cpuPath); err == nil {
			if pprof.StartCPUProfile(f) == nil {
				time.Sleep(t.cfg.ProfileDuration)
				pprof.StopCPUProfile()
			}
			f.Close()
		}
		mtxPath := filepath.Join(t.cfg.ProfileDir, "slo_burn_mutex_"+stamp+".pprof")
		if f, err := os.Create(mtxPath); err == nil {
			if p := pprof.Lookup("mutex"); p != nil {
				p.WriteTo(f, 0)
			}
			f.Close()
		}
		t.captures.Inc()
	}()
}

// Captures returns how many sustained-burn profile captures have completed.
func (t *SLOTracker) Captures() uint64 { return t.captures.Load() }

// MetricsInto implements MetricSource: per-verb good/total counters, the
// objective as a gauge, the burn-rate gauge, and the capture counter.
func (t *SLOTracker) MetricsInto(reg *Registry, labels Labels) {
	for _, v := range t.verbs {
		v := v
		l := labels.With("verb", v.obj.Verb)
		reg.Counter("slo_good_total", "Requests meeting the latency objective", l, &v.good)
		reg.Counter("slo_requests_total", "Requests measured against the latency objective", l, &v.total)
		reg.Gauge("slo_objective_seconds", "Latency objective target", l,
			func() float64 { return v.obj.Target.Seconds() })
		reg.Gauge("slo_burn_rate", "Error-budget burn rate over the last window (1.0 = provisioned rate)", l,
			v.BurnRate)
	}
	reg.Counter("slo_profile_captures_total", "Profiles captured on sustained SLO burn", labels, &t.captures)
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
