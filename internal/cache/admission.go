// Admission control: the subsystem that decides whether a Set is written to
// flash at all. Flash caches shed write bandwidth — and extend device
// lifetime — by refusing inserts that are unlikely to earn hits before they
// are evicted; the paper names CacheLib's dynamic random admission and
// Flashield as the canonical levers on the write-amplification axis its ZNS
// comparison (§4.3) is about.
//
// Policies are stateful (PRNG streams, bloom bits, sketch counters) and are
// mutated on every Admit, so one instance belongs to exactly one engine.
// Config.Admission is therefore an AdmissionFactory: every engine — each
// shard of a sharded cache, and each engine Restore rebuilds — builds its
// own independently-seeded instance, and no instance is ever shared.
// AdmitAll, being stateless, is its own factory.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// Admission decides whether a Set is written to flash at all.
type Admission interface {
	// Admit reports whether the item should be inserted.
	Admit(key string, valLen int) bool
}

// AdmissionParams carries the engine-derived inputs a policy instance binds
// to when a factory builds it: a per-engine seed (shard-decorrelated by the
// caller, e.g. via ShardSeed) and the engine's virtual clock, which
// rate-aware policies read to measure write bandwidth in simulated time.
type AdmissionParams struct {
	Seed  uint64
	Clock *sim.Clock
}

// AdmissionFactory builds one independent policy instance per engine. The
// factory itself is an immutable configuration value and may be shared
// freely; only the Admission instances it returns are single-engine.
type AdmissionFactory interface {
	// Name identifies the policy for flags, reports, and metric labels.
	Name() string
	// New builds a fresh, independent policy instance.
	New(p AdmissionParams) Admission
}

// AdmissionMetrics is implemented by policies that export per-policy
// instruments (admit/reject counters, the live admit-probability gauge).
// Cache.MetricsInto forwards to it, so per-policy series appear wherever the
// engine registers.
type AdmissionMetrics interface {
	MetricsInto(r *obs.Registry, labels obs.Labels)
}

// admissionCounters is the instrument pair every stateful policy embeds.
// The counters are atomic, so a concurrent metrics scrape mid-run is safe
// even though Admit itself is single-engine.
type admissionCounters struct {
	admits  stats.Counter
	rejects stats.Counter
}

func (c *admissionCounters) metricsInto(r *obs.Registry, labels obs.Labels, policy string) {
	ls := labels.With("policy", policy)
	r.Counter("admission_admits_total", "Inserts admitted by the policy", ls, &c.admits)
	r.Counter("admission_rejects_total", "Inserts rejected by the policy", ls, &c.rejects)
}

// Admits returns how many inserts the policy has admitted.
func (c *admissionCounters) Admits() uint64 { return c.admits.Load() }

// Rejects returns how many inserts the policy has rejected.
func (c *admissionCounters) Rejects() uint64 { return c.rejects.Load() }

// ---------------------------------------------------------------------------
// AdmitAll

// AdmitAll admits everything (CacheLib's default). It is stateless, so it
// is its own factory.
type AdmitAll struct{}

// Admit implements Admission.
func (AdmitAll) Admit(string, int) bool { return true }

// Name implements AdmissionFactory.
func (AdmitAll) Name() string { return "all" }

// New implements AdmissionFactory.
func (AdmitAll) New(AdmissionParams) Admission { return AdmitAll{} }

// ---------------------------------------------------------------------------
// ProbAdmit

// ProbAdmit admits a uniform fraction P of inserts, deterministic per
// engine instance via its own PRNG stream.
type ProbAdmit struct {
	P   float64
	rng *sim.Rand
	admissionCounters
}

// NewProbAdmit builds a probabilistic admitter.
func NewProbAdmit(p float64, seed uint64) *ProbAdmit {
	return &ProbAdmit{P: p, rng: sim.NewRand(seed)}
}

// Admit implements Admission.
func (a *ProbAdmit) Admit(string, int) bool {
	if a.rng.Float64() >= a.P {
		a.rejects.Inc()
		return false
	}
	a.admits.Inc()
	return true
}

// MetricsInto implements AdmissionMetrics.
func (a *ProbAdmit) MetricsInto(r *obs.Registry, labels obs.Labels) {
	a.metricsInto(r, labels, "prob")
}

// ProbAdmitFactory builds ProbAdmit policies with probability P.
type ProbAdmitFactory struct{ P float64 }

// Name implements AdmissionFactory.
func (f ProbAdmitFactory) Name() string { return fmt.Sprintf("prob:%g", f.P) }

// New implements AdmissionFactory.
func (f ProbAdmitFactory) New(p AdmissionParams) Admission { return NewProbAdmit(f.P, p.Seed) }

// ---------------------------------------------------------------------------
// RejectFirstAdmit

// RejectFirstAdmit admits a key only on its second appearance within the
// current window, filtering one-hit wonders. Appearance tracking uses a
// two-hash Bloom filter that is cleared each time Window inserts have been
// observed, bounding both memory and staleness.
type RejectFirstAdmit struct {
	bits   []uint64
	nbits  uint64
	window int
	seen   int
	seed   uint64
	admissionCounters
}

// NewRejectFirstAdmit builds a reject-first-access admitter with the given
// filter size (in bits, rounded up to 64) and reset window.
func NewRejectFirstAdmit(bitCount int, window int) *RejectFirstAdmit {
	return NewRejectFirstAdmitSeeded(bitCount, window, 0)
}

// NewRejectFirstAdmitSeeded is NewRejectFirstAdmit with a hash seed, so
// per-shard instances probe decorrelated bit positions for the same key.
func NewRejectFirstAdmitSeeded(bitCount int, window int, seed uint64) *RejectFirstAdmit {
	if bitCount < 64 {
		bitCount = 64
	}
	if window <= 0 {
		window = 1 << 20
	}
	words := (bitCount + 63) / 64
	return &RejectFirstAdmit{
		bits:   make([]uint64, words),
		nbits:  uint64(words * 64),
		window: window,
		seed:   seed,
	}
}

// hash2 derives the two bloom positions from two independent hash functions
// computed in one pass over the key: FNV-1a (xor-then-multiply) and FNV-1
// (multiply-then-xor) with a seed-perturbed offset basis. The previous
// implementation rotated the single FNV-1a sum, which made the two bit
// positions fully correlated modulo the (power-of-two) filter size — and let
// them collapse to one bit — inflating the false-positive admit rate well
// above the two-hash bloom bound.
func (a *RejectFirstAdmit) hash2(key string) (uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h1 := uint64(offset64) ^ a.seed
	h2 := uint64(offset64) ^ mix64(a.seed+1)
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= prime64
		h2 *= prime64
		h2 ^= uint64(key[i])
	}
	return h1 % a.nbits, h2 % a.nbits
}

// Admit implements Admission: false on first sight, true afterwards.
func (a *RejectFirstAdmit) Admit(key string, _ int) bool {
	b1, b2 := a.hash2(key)
	present := a.bits[b1/64]&(1<<(b1%64)) != 0 && a.bits[b2/64]&(1<<(b2%64)) != 0
	a.bits[b1/64] |= 1 << (b1 % 64)
	a.bits[b2/64] |= 1 << (b2 % 64)
	a.seen++
	if a.seen >= a.window {
		for i := range a.bits {
			a.bits[i] = 0
		}
		a.seen = 0
	}
	if present {
		a.admits.Inc()
	} else {
		a.rejects.Inc()
	}
	return present
}

// MetricsInto implements AdmissionMetrics.
func (a *RejectFirstAdmit) MetricsInto(r *obs.Registry, labels obs.Labels) {
	a.metricsInto(r, labels, "reject-first")
}

// RejectFirstFactory builds RejectFirstAdmit policies. Zero values take the
// NewRejectFirstAdmit defaults.
type RejectFirstFactory struct {
	Bits   int
	Window int
}

// Name implements AdmissionFactory.
func (RejectFirstFactory) Name() string { return "reject-first" }

// New implements AdmissionFactory.
func (f RejectFirstFactory) New(p AdmissionParams) Admission {
	bits, window := f.Bits, f.Window
	if bits == 0 {
		bits = 1 << 20
	}
	return NewRejectFirstAdmitSeeded(bits, window, p.Seed)
}

// ---------------------------------------------------------------------------
// DynamicRandomAdmit

// Defaults for DynamicRandomAdmit. The window is simulated time: long enough
// to see hundreds of inserts per window in the harness workloads, short
// enough to converge within a fraction of a second of simulated traffic.
const (
	dynamicDefaultWindow = 50 * time.Millisecond
	// dynamicMaxStep bounds the per-window multiplicative probability change,
	// damping oscillation when one window's observed rate is noisy.
	dynamicMaxStep = 2.0
	// dynamicMinP keeps the policy probing even when far over budget, so it
	// can recover when the offered load drops.
	dynamicMinP = 1e-3
)

// DynamicRandomAdmit adapts its admit probability so the recent write rate
// (bytes of admitted inserts per second of simulated time, measured over a
// sliding window on the engine's clock) tracks a configured budget — the
// shape of CacheLib's dynamic random admission policy, the standard lever
// for shedding flash write bandwidth to meet a device-lifetime target. Admit
// decisions are randomized uniformly at the current probability, so the
// accepted stream remains an unbiased sample of the offered stream.
type DynamicRandomAdmit struct {
	budget float64 // target bytes/second of simulated time
	window time.Duration
	clock  *sim.Clock
	rng    *sim.Rand

	// p is the current admit probability, stored as Float64bits so the
	// metrics gauge can read it from another goroutine mid-run.
	p atomic.Uint64

	// bytesWritten, when set, is the downstream byte counter the budget
	// actually constrains (e.g. device media writes including GC and region
	// padding); the controller then regulates what the device truly absorbs,
	// compensating write amplification automatically. Nil falls back to
	// admitted item bytes.
	bytesWritten func() uint64
	devBase      uint64 // device counter value when the source was bound

	// The observed series is max(cumulative admitted bytes, cumulative device
	// bytes): device flushes lag admits by up to a whole region, so billing
	// each window the delta of the running max counts every byte exactly once
	// — admits as they happen, plus the device's write-amplification excess
	// when a flush lands — instead of double-counting buffered admits in both
	// the quiet window and the flush window.
	cumAdmitted float64
	lastCum     float64

	winStart time.Duration
	admissionCounters
}

// NewDynamicRandomAdmit builds a write-rate-aware admitter over the given
// virtual clock. budgetBytesPerSec is the device-write budget in bytes per
// simulated second; window is the rate-measurement window (0 = 50ms).
func NewDynamicRandomAdmit(budgetBytesPerSec float64, window time.Duration, clock *sim.Clock, seed uint64) (*DynamicRandomAdmit, error) {
	if budgetBytesPerSec <= 0 {
		return nil, fmt.Errorf("%w: dynamic-random budget %g bytes/s", ErrBadConfig, budgetBytesPerSec)
	}
	if clock == nil {
		return nil, fmt.Errorf("%w: dynamic-random needs a clock", ErrBadConfig)
	}
	if window <= 0 {
		window = dynamicDefaultWindow
	}
	a := &DynamicRandomAdmit{
		budget:   budgetBytesPerSec,
		window:   window,
		clock:    clock,
		rng:      sim.NewRand(seed),
		winStart: clock.Now(),
	}
	a.p.Store(math.Float64bits(1.0)) // start open; converge downward
	return a, nil
}

// SetBytesSource points the controller at the downstream byte counter the
// budget constrains (device media bytes, filesystem bytes, ...). Call before
// the first Admit; the harness wires each rig's device counter in here so
// dynamic-random holds the device — not just the admitted stream — to the
// budget.
func (a *DynamicRandomAdmit) SetBytesSource(fn func() uint64) {
	a.bytesWritten = fn
	if fn != nil {
		a.devBase = fn()
	}
}

// Probability returns the current admit probability. Safe to call
// concurrently with Admit (metrics gauge).
func (a *DynamicRandomAdmit) Probability() float64 {
	return math.Float64frombits(a.p.Load())
}

// retarget closes the current rate window: compare the observed byte rate
// against the budget and scale the probability toward the target, bounded
// per step so a single noisy window cannot slam the policy shut (or open).
func (a *DynamicRandomAdmit) retarget(now, elapsed time.Duration) {
	p := a.Probability()
	cum := a.cumAdmitted
	if a.bytesWritten != nil {
		if dev := float64(a.bytesWritten() - a.devBase); dev > cum {
			cum = dev
		}
	}
	winBytes := cum - a.lastCum
	a.lastCum = cum
	observed := winBytes / elapsed.Seconds()
	if observed <= 0 {
		// Nothing admitted (or nothing offered): probe upward so the policy
		// recovers once load returns.
		p *= dynamicMaxStep
	} else {
		f := a.budget / observed
		if f > dynamicMaxStep {
			f = dynamicMaxStep
		}
		if f < 1/dynamicMaxStep {
			f = 1 / dynamicMaxStep
		}
		p *= f
	}
	if p > 1 {
		p = 1
	}
	if p < dynamicMinP {
		p = dynamicMinP
	}
	a.p.Store(math.Float64bits(p))
	a.winStart = now
}

// Admit implements Admission.
func (a *DynamicRandomAdmit) Admit(key string, valLen int) bool {
	now := a.clock.Now()
	if elapsed := now - a.winStart; elapsed >= a.window {
		a.retarget(now, elapsed)
	}
	if a.rng.Float64() >= a.Probability() {
		a.rejects.Inc()
		return false
	}
	a.cumAdmitted += float64(itemHeaderSize + len(key) + valLen)
	a.admits.Inc()
	return true
}

// MetricsInto implements AdmissionMetrics, adding the live probability gauge
// next to the admit/reject counters.
func (a *DynamicRandomAdmit) MetricsInto(r *obs.Registry, labels obs.Labels) {
	ls := labels.With("policy", "dynamic-random")
	a.metricsInto(r, labels, "dynamic-random")
	r.Gauge("admission_admit_probability", "Current dynamic-random admit probability", ls, a.Probability)
	r.Gauge("admission_budget_bytes_per_sec", "Configured dynamic-random write budget", ls, func() float64 {
		return a.budget
	})
}

// DynamicRandomFactory builds DynamicRandomAdmit policies. The budget is
// per engine: a sharded frontend splitting traffic across N engines should
// hand each factory instance 1/N of the device budget.
type DynamicRandomFactory struct {
	BudgetBytesPerSec float64
	Window            time.Duration // 0 = default 50ms of simulated time
	// BytesWritten, when set, is handed to every built instance as the
	// downstream byte counter the budget constrains (see SetBytesSource).
	// Leave nil when one factory value builds instances for several engines —
	// each engine needs its own counter, wired per instance by the caller.
	BytesWritten func() uint64
}

// Name implements AdmissionFactory.
func (f DynamicRandomFactory) Name() string { return "dynamic-random" }

// New implements AdmissionFactory.
func (f DynamicRandomFactory) New(p AdmissionParams) Admission {
	a, err := NewDynamicRandomAdmit(f.BudgetBytesPerSec, f.Window, p.Clock, p.Seed)
	if err != nil {
		// Factories are validated at parse/config time; a bad budget
		// reaching New is a programming error.
		panic(err)
	}
	if f.BytesWritten != nil {
		a.SetBytesSource(f.BytesWritten)
	}
	return a
}

// Validate reports whether the factory can build instances.
func (f DynamicRandomFactory) Validate() error {
	if f.BudgetBytesPerSec <= 0 {
		return fmt.Errorf("%w: dynamic-random budget %g bytes/s", ErrBadConfig, f.BudgetBytesPerSec)
	}
	return nil
}

// ---------------------------------------------------------------------------
// FrequencyAdmit

// Defaults for FrequencyAdmit.
const (
	frequencyDefaultCounters  = 1 << 16
	frequencyDefaultThreshold = 2
	// frequencyDefaultHalveFactor: halve every counters×factor observations,
	// the TinyLFU "reset" that ages out stale popularity.
	frequencyDefaultHalveFactor = 8
	frequencyDepth              = 4
	nibbleMax                   = 15
	nibbleHalfMask              = 0x7777777777777777
)

// FrequencyAdmit is a TinyLFU-style frequency filter: a 4-bit count-min
// sketch estimates how often each key has been seen recently, and only keys
// whose estimated frequency (including the current access) clears Threshold
// are admitted — one-hit wonders never reach flash. Every HalveEvery
// observations all counters are halved, so popularity decays and the sketch
// tracks the recent workload rather than all history (Flashield's
// "write-worthiness" idea reduced to frequency).
type FrequencyAdmit struct {
	rows       [frequencyDepth][]uint64 // packed 4-bit counters, 16 per word
	mask       uint64                   // counters per row - 1 (power of two)
	threshold  uint8
	halveEvery int
	ops        int
	seed       uint64
	admissionCounters
}

// NewFrequencyAdmit builds a frequency admitter with counters counters per
// sketch row (rounded up to a power of two, min 1024), admitting keys whose
// estimated access count reaches threshold (min 1), and halving all counters
// every halveEvery observations (0 = 8× counters).
func NewFrequencyAdmit(counters int, threshold uint8, halveEvery int, seed uint64) *FrequencyAdmit {
	if counters < 1024 {
		counters = 1024
	}
	if bits.OnesCount(uint(counters)) != 1 {
		counters = 1 << bits.Len(uint(counters))
	}
	if threshold < 1 {
		threshold = 1
	}
	if halveEvery <= 0 {
		halveEvery = counters * frequencyDefaultHalveFactor
	}
	a := &FrequencyAdmit{
		mask:       uint64(counters - 1),
		threshold:  threshold,
		halveEvery: halveEvery,
		seed:       seed,
	}
	words := counters / 16
	for i := range a.rows {
		a.rows[i] = make([]uint64, words)
	}
	return a
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection used to
// derive decorrelated per-row sketch positions from one key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// positions derives the frequencyDepth row positions for key.
func (a *FrequencyAdmit) positions(key string) [frequencyDepth]uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ a.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	var pos [frequencyDepth]uint64
	for i := range pos {
		h = mix64(h + 0x9E3779B97F4A7C15)
		pos[i] = h & a.mask
	}
	return pos
}

// nibble returns counter c of row r.
func (a *FrequencyAdmit) nibble(r int, c uint64) uint8 {
	return uint8(a.rows[r][c/16] >> ((c % 16) * 4) & 0xF)
}

// setNibble stores v into counter c of row r.
func (a *FrequencyAdmit) setNibble(r int, c uint64, v uint8) {
	shift := (c % 16) * 4
	w := a.rows[r][c/16]
	w &^= 0xF << shift
	w |= uint64(v) << shift
	a.rows[r][c/16] = w
}

// Estimate returns the sketch's current frequency estimate for key, without
// recording an access (tests, introspection).
func (a *FrequencyAdmit) Estimate(key string) uint8 {
	pos := a.positions(key)
	est := uint8(nibbleMax)
	for r, c := range pos {
		if v := a.nibble(r, c); v < est {
			est = v
		}
	}
	return est
}

// Admit implements Admission: record the access in the sketch and admit iff
// the estimated frequency including this access reaches the threshold.
func (a *FrequencyAdmit) Admit(key string, _ int) bool {
	pos := a.positions(key)
	est := uint8(nibbleMax)
	for r, c := range pos {
		if v := a.nibble(r, c); v < est {
			est = v
		}
	}
	// Conservative update: only the minimal counters grow, which tightens
	// the count-min overestimate under collisions.
	if est < nibbleMax {
		for r, c := range pos {
			if a.nibble(r, c) == est {
				a.setNibble(r, c, est+1)
			}
		}
	}
	a.ops++
	if a.ops >= a.halveEvery {
		a.halve()
		a.ops = 0
	}
	if uint(est)+1 >= uint(a.threshold) {
		a.admits.Inc()
		return true
	}
	a.rejects.Inc()
	return false
}

// halve ages the sketch: every 4-bit counter is divided by two in place.
func (a *FrequencyAdmit) halve() {
	for r := range a.rows {
		row := a.rows[r]
		for i, w := range row {
			row[i] = (w >> 1) & nibbleHalfMask
		}
	}
}

// MetricsInto implements AdmissionMetrics.
func (a *FrequencyAdmit) MetricsInto(r *obs.Registry, labels obs.Labels) {
	a.metricsInto(r, labels, "frequency")
}

// FrequencyFactory builds FrequencyAdmit policies of the default sketch
// size. A zero Threshold takes the default.
type FrequencyFactory struct {
	Threshold uint8
}

// Name implements AdmissionFactory.
func (FrequencyFactory) Name() string { return "frequency" }

// New implements AdmissionFactory.
func (f FrequencyFactory) New(p AdmissionParams) Admission {
	threshold := f.Threshold
	if threshold == 0 {
		threshold = frequencyDefaultThreshold
	}
	return NewFrequencyAdmit(frequencyDefaultCounters, threshold, 0, p.Seed)
}

// ---------------------------------------------------------------------------
// Flag parsing

// ParseAdmission turns a bench-flag spec into a factory. Specs:
//
//	""             no admission control configured (nil factory)
//	all            admit everything
//	prob:P         uniform random admission at probability P (0..1]
//	reject-first[:BITS,WINDOW]
//	               bloom-filtered second-access admission
//	dynamic-random[:WINDOW_MS]
//	               write-rate-aware admission at budgetBytesPerSec
//	frequency[:THRESHOLD]
//	               TinyLFU-style sketch admission
//
// budgetBytesPerSec is consumed by dynamic-random only (bytes of admitted
// writes per second of simulated time); it must be positive for that spec.
func ParseAdmission(spec string, budgetBytesPerSec float64) (AdmissionFactory, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	switch name {
	case "", "none":
		return nil, nil
	case "all":
		return AdmitAll{}, nil
	case "prob":
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, fmt.Errorf("cache: admission spec %q: need prob:P with P in (0,1]", spec)
		}
		return ProbAdmitFactory{P: p}, nil
	case "reject-first":
		f := RejectFirstFactory{}
		if arg != "" {
			parts := strings.Split(arg, ",")
			if len(parts) != 2 {
				return nil, fmt.Errorf("cache: admission spec %q: need reject-first:BITS,WINDOW", spec)
			}
			bits, err1 := strconv.Atoi(parts[0])
			window, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || bits <= 0 || window <= 0 {
				return nil, fmt.Errorf("cache: admission spec %q: need reject-first:BITS,WINDOW", spec)
			}
			f.Bits, f.Window = bits, window
		}
		return f, nil
	case "dynamic-random":
		f := DynamicRandomFactory{BudgetBytesPerSec: budgetBytesPerSec}
		if arg != "" {
			ms, err := strconv.Atoi(arg)
			if err != nil || ms <= 0 {
				return nil, fmt.Errorf("cache: admission spec %q: need dynamic-random:WINDOW_MS", spec)
			}
			f.Window = time.Duration(ms) * time.Millisecond
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("cache: admission spec %q needs a positive write budget (-admit-budget)", spec)
		}
		return f, nil
	case "frequency":
		f := FrequencyFactory{}
		if arg != "" {
			th, err := strconv.Atoi(arg)
			if err != nil || th < 1 || th > nibbleMax {
				return nil, fmt.Errorf("cache: admission spec %q: need frequency:THRESHOLD in [1,%d]", spec, nibbleMax)
			}
			f.Threshold = uint8(th)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("cache: unknown admission policy %q", spec)
	}
}

// Interface conformance.
var (
	_ AdmissionMetrics = (*ProbAdmit)(nil)
	_ AdmissionMetrics = (*RejectFirstAdmit)(nil)
	_ AdmissionMetrics = (*DynamicRandomAdmit)(nil)
	_ AdmissionMetrics = (*FrequencyAdmit)(nil)
	_ AdmissionFactory = AdmitAll{}
	_ AdmissionFactory = ProbAdmitFactory{}
	_ AdmissionFactory = RejectFirstFactory{}
	_ AdmissionFactory = DynamicRandomFactory{}
	_ AdmissionFactory = FrequencyFactory{}
)
