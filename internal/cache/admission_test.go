package cache

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"
	"time"

	"znscache/internal/sim"
)

// TestRejectFirstFalsePositiveRate is the regression test for the correlated
// hash2 bug: the second bloom position used to be a rotation of the same
// FNV-1a sum, collapsing the two-hash filter toward a one-hash filter whose
// false-positive rate is the bit-fill fraction itself. With independent
// hashes the FPR must track the two-hash bound fill^2.
func TestRejectFirstFalsePositiveRate(t *testing.T) {
	const (
		filterBits = 8192
		inserted   = 512
		probes     = 20000
	)
	a := NewRejectFirstAdmitSeeded(filterBits, 1<<20, 3)
	for i := 0; i < inserted; i++ {
		a.Admit(fmt.Sprintf("member-%06d", i), 1)
	}
	set := 0
	for _, w := range a.bits {
		set += bits.OnesCount64(w)
	}
	fill := float64(set) / float64(a.nbits)

	// Probe unseen keys through hash2 directly so the probes do not mutate
	// the filter (Admit would insert them).
	fp := 0
	for i := 0; i < probes; i++ {
		b1, b2 := a.hash2(fmt.Sprintf("probe-%06d", i))
		if a.bits[b1/64]&(1<<(b1%64)) != 0 && a.bits[b2/64]&(1<<(b2%64)) != 0 {
			fp++
		}
	}
	fpr := float64(fp) / probes

	// Two-hash bound is fill^2 (~1.4% at this fill); the correlated hash sat
	// near fill (~12%). 3x the bound leaves room for sampling noise while
	// still failing hard on the old behaviour.
	if bound := 3 * fill * fill; fpr > bound {
		t.Fatalf("false-positive rate %.4f exceeds 3x two-hash bound %.4f (fill %.4f); hashes correlated?", fpr, bound, fill)
	}
	if fpr > fill/2 {
		t.Fatalf("false-positive rate %.4f is within 2x of fill %.4f — second hash adds no information", fpr, fill)
	}
}

// TestRejectFirstHash2Positions sanity-checks that the two positions are not
// a deterministic function of one another across keys.
func TestRejectFirstHash2Positions(t *testing.T) {
	a := NewRejectFirstAdmitSeeded(4096, 1<<20, 0)
	same := 0
	diffs := make(map[uint64]int)
	const n = 4096
	for i := 0; i < n; i++ {
		b1, b2 := a.hash2(fmt.Sprintf("key-%06d", i))
		if b1 == b2 {
			same++
		}
		diffs[(b2-b1)%a.nbits]++
	}
	if same > n/100 {
		t.Fatalf("positions collide for %d/%d keys", same, n)
	}
	for d, c := range diffs {
		// A rotation-derived h2 makes b2-b1 concentrate on a few values.
		if c > n/20 {
			t.Fatalf("position delta %d occurs for %d/%d keys — correlated hashes", d, c, n)
		}
	}
}

// TestDynamicRandomBudgetConvergence drives the controller with a controlled
// clock and a constant offered write stream, and checks the admitted byte
// rate settles within 10% of the budget — the policy's whole contract.
func TestDynamicRandomBudgetConvergence(t *testing.T) {
	const (
		dt     = 100 * time.Microsecond
		valLen = 1000
		keyLen = 12 // "key-" + 8 digits
	)
	itemBytes := float64(itemHeaderSize + keyLen + valLen)
	offered := itemBytes / dt.Seconds()
	cases := []struct {
		name   string
		frac   float64 // budget as a fraction of the offered rate
		window time.Duration
	}{
		{"quarter-default-window", 0.25, 0},
		{"sixty-pct-default-window", 0.60, 0},
		{"quarter-short-window", 0.25, 10 * time.Millisecond},
		{"tenth-long-window", 0.10, 200 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := sim.NewClock()
			budget := tc.frac * offered
			a, err := NewDynamicRandomAdmit(budget, tc.window, clk, 42)
			if err != nil {
				t.Fatal(err)
			}
			run := func(ops int) float64 {
				var admitted float64
				for i := 0; i < ops; i++ {
					clk.Advance(dt)
					if a.Admit(fmt.Sprintf("key-%08d", i), valLen) {
						admitted += itemBytes
					}
				}
				return admitted / (float64(ops) * dt.Seconds())
			}
			run(30_000) // converge
			rate := run(50_000)
			if math.Abs(rate-budget)/budget > 0.10 {
				t.Fatalf("admitted rate %.0f B/s not within 10%% of budget %.0f B/s (offered %.0f)", rate, budget, offered)
			}
			if p := a.Probability(); p <= 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
		})
	}
}

// TestDynamicRandomDeviceSource checks the controller regulates the
// downstream device counter — not just admitted item bytes — when a bytes
// source is wired in: with a device writing 2x the admitted bytes (WA 2.0),
// the device rate must converge to the budget, i.e. admits shed twice as
// hard.
func TestDynamicRandomDeviceSource(t *testing.T) {
	const (
		dt     = 100 * time.Microsecond
		valLen = 1000
		keyLen = 12
	)
	itemBytes := float64(itemHeaderSize + keyLen + valLen)
	offered := itemBytes / dt.Seconds()
	budget := 0.30 * offered

	clk := sim.NewClock()
	a, err := NewDynamicRandomAdmit(budget, 0, clk, 7)
	if err != nil {
		t.Fatal(err)
	}
	var device uint64
	a.SetBytesSource(func() uint64 { return device })

	run := func(ops int) float64 {
		start := device
		for i := 0; i < ops; i++ {
			clk.Advance(dt)
			if a.Admit(fmt.Sprintf("key-%08d", i), valLen) {
				device += 2 * uint64(itemBytes) // WA 2.0
			}
		}
		return float64(device-start) / (float64(ops) * dt.Seconds())
	}
	run(30_000)
	rate := run(50_000)
	if math.Abs(rate-budget)/budget > 0.10 {
		t.Fatalf("device rate %.0f B/s not within 10%% of budget %.0f B/s under WA 2.0", rate, budget)
	}
}

func TestDynamicRandomConfigErrors(t *testing.T) {
	clk := sim.NewClock()
	if _, err := NewDynamicRandomAdmit(0, 0, clk, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero budget err = %v", err)
	}
	if _, err := NewDynamicRandomAdmit(-5, 0, clk, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative budget err = %v", err)
	}
	if _, err := NewDynamicRandomAdmit(1e6, 0, nil, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil clock err = %v", err)
	}
	if err := (DynamicRandomFactory{}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("factory zero budget err = %v", err)
	}
}

// TestFrequencyAdmitOneHitWonders: at the default threshold (2), every first
// access is rejected and every second access is admitted.
func TestFrequencyAdmitOneHitWonders(t *testing.T) {
	a := NewFrequencyAdmit(1<<12, 2, 0, 9)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if a.Admit(k, 1) {
			t.Fatalf("one-hit wonder %q admitted on first access", k)
		}
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if !a.Admit(k, 1) {
			t.Fatalf("repeated key %q rejected on second access", k)
		}
	}
	if a.Admits() != 200 || a.Rejects() != 200 {
		t.Fatalf("counters admits=%d rejects=%d, want 200/200", a.Admits(), a.Rejects())
	}
}

// TestFrequencyAdmitHalving: the periodic halve must age out stale counts so
// a formerly-hot key has to re-earn admission.
func TestFrequencyAdmitHalving(t *testing.T) {
	a := NewFrequencyAdmit(1024, 3, 8, 5)
	for i := 0; i < 3; i++ {
		a.Admit("hot", 1)
	}
	if est := a.Estimate("hot"); est != 3 {
		t.Fatalf("Estimate(hot) = %d after 3 accesses, want 3", est)
	}
	// Five more observations reach halveEvery=8 and trigger the decay.
	for i := 0; i < 5; i++ {
		a.Admit(fmt.Sprintf("filler-%d", i), 1)
	}
	if est := a.Estimate("hot"); est != 1 {
		t.Fatalf("Estimate(hot) = %d after halving, want 1 (3>>1)", est)
	}
	// The aged key is below threshold again: next access is rejected.
	if a.Admit("hot", 1) {
		t.Fatal("aged-out key still admitted at threshold 3")
	}
}

// TestFrequencyAdmitSaturation: 4-bit counters cap at 15 and stay there.
func TestFrequencyAdmitSaturation(t *testing.T) {
	a := NewFrequencyAdmit(1024, 2, 1<<20, 1)
	for i := 0; i < 50; i++ {
		a.Admit("hot", 1)
	}
	if est := a.Estimate("hot"); est != nibbleMax {
		t.Fatalf("Estimate(hot) = %d after 50 accesses, want %d", est, nibbleMax)
	}
	if !a.Admit("hot", 1) {
		t.Fatal("saturated key rejected")
	}
}

func TestParseAdmission(t *testing.T) {
	valid := []struct {
		spec   string
		budget float64
		name   string
	}{
		{"all", 0, "all"},
		{"prob:0.5", 0, "prob:0.5"},
		{"reject-first", 0, "reject-first"},
		{"reject-first:1024,100", 0, "reject-first"},
		{"dynamic-random", 1e6, "dynamic-random"},
		{"dynamic-random:20", 1e6, "dynamic-random"},
		{"frequency", 0, "frequency"},
		{"frequency:3", 0, "frequency"},
	}
	for _, tc := range valid {
		f, err := ParseAdmission(tc.spec, tc.budget)
		if err != nil {
			t.Fatalf("ParseAdmission(%q) = %v", tc.spec, err)
		}
		if f.Name() != tc.name {
			t.Fatalf("ParseAdmission(%q).Name() = %q, want %q", tc.spec, f.Name(), tc.name)
		}
	}
	for _, spec := range []string{"", "none"} {
		f, err := ParseAdmission(spec, 0)
		if err != nil || f != nil {
			t.Fatalf("ParseAdmission(%q) = %v, %v, want nil, nil", spec, f, err)
		}
	}
	invalid := []struct {
		spec   string
		budget float64
	}{
		{"bogus", 0},
		{"prob:", 0},
		{"prob:0", 0},
		{"prob:1.5", 0},
		{"reject-first:64", 0},
		{"reject-first:x,y", 0},
		{"dynamic-random", 0}, // needs a budget
		{"dynamic-random:-1", 1e6},
		{"frequency:0", 0},
		{"frequency:99", 0},
	}
	for _, tc := range invalid {
		if _, err := ParseAdmission(tc.spec, tc.budget); err == nil {
			t.Fatalf("ParseAdmission(%q, %g) accepted", tc.spec, tc.budget)
		}
	}
}

// TestAdmissionFactoryDeterminism: a factory handed the same params must
// build instances that make identical decision sequences — the property the
// sharded replay contract rests on.
func TestAdmissionFactoryDeterminism(t *testing.T) {
	factories := []AdmissionFactory{
		ProbAdmitFactory{P: 0.4},
		RejectFirstFactory{Bits: 4096, Window: 500},
		DynamicRandomFactory{BudgetBytesPerSec: 1 << 20},
		FrequencyFactory{},
	}
	for _, f := range factories {
		t.Run(f.Name(), func(t *testing.T) {
			decisions := func(seed uint64) []bool {
				clk := sim.NewClock()
				a := f.New(AdmissionParams{Seed: seed, Clock: clk})
				out := make([]bool, 0, 2000)
				rng := sim.NewRand(99)
				for i := 0; i < 2000; i++ {
					clk.Advance(time.Millisecond)
					out = append(out, a.Admit(fmt.Sprintf("key-%04d", rng.Intn(700)), 512))
				}
				return out
			}
			a, b := decisions(7), decisions(7)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same-seed instances diverge at op %d", i)
				}
			}
		})
	}
}

// newShardedWithAdmission builds an n-shard frontend whose engines each get
// an independent policy instance from factory, seeded per shard.
func newShardedWithAdmission(t testing.TB, n int, factory AdmissionFactory, seed uint64) *Sharded {
	t.Helper()
	engines := make([]*Cache, n)
	for i := range engines {
		c, err := New(Config{
			Store:         newMemStore(8, 64<<10),
			Admission:     factory,
			AdmissionSeed: ShardSeed(seed, i),
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		engines[i] = c
	}
	s, err := NewSharded(engines)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return s
}

// admissionTestFactories covers every stateful policy.
func admissionTestFactories() []AdmissionFactory {
	return []AdmissionFactory{
		ProbAdmitFactory{P: 0.5},
		RejectFirstFactory{Bits: 1 << 16, Window: 10_000},
		DynamicRandomFactory{BudgetBytesPerSec: 4 << 20},
		FrequencyFactory{},
	}
}

// TestShardedAdmissionConcurrent is the -race regression test for the
// tentpole: concurrent cross-shard Sets and Gets with every stateful policy,
// each shard owning its own instance via the factory seam. Before the seam a
// shared instance made this a data race (PRNG state, bloom bits, sketch
// counters all mutate unlocked on Admit).
func TestShardedAdmissionConcurrent(t *testing.T) {
	for _, f := range admissionTestFactories() {
		t.Run(f.Name(), func(t *testing.T) {
			s := newShardedWithAdmission(t, 4, f, 17)
			const goroutines = 8
			const opsPer = 1500
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					rng := sim.NewRand(ShardSeed(23, g))
					for i := 0; i < opsPer; i++ {
						k := fmt.Sprintf("key-%04d", rng.Intn(600))
						if rng.Intn(4) == 0 {
							if _, _, err := s.Get(k); err != nil {
								t.Errorf("Get: %v", err)
								return
							}
						} else if err := s.Set(k, nil, 1024); err != nil {
							t.Errorf("Set: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			s.Drain()
			st := s.Stats()
			if st.Sets == 0 {
				t.Fatal("no Sets recorded")
			}
			if f.Name() != "all" && st.AdmitRejects == 0 {
				t.Fatalf("policy %s never rejected in %d ops", f.Name(), goroutines*opsPer)
			}
		})
	}
}

// TestShardedAdmissionDeterminism extends the replay contract to seeded
// per-shard policies: two concurrent replays over identically-built sharded
// caches must agree byte-for-byte on merged stats, including admission
// counters, regardless of goroutine interleaving.
func TestShardedAdmissionDeterminism(t *testing.T) {
	for _, f := range admissionTestFactories() {
		t.Run(f.Name(), func(t *testing.T) {
			a := shardedReplay(t, newShardedWithAdmission(t, 4, f, 3), 13, 12_000)
			b := shardedReplay(t, newShardedWithAdmission(t, 4, f, 3), 13, 12_000)
			if a != b {
				t.Fatalf("same-seed replays diverged under %s:\n  run1: %+v\n  run2: %+v", f.Name(), a, b)
			}
			if a.Sets == 0 {
				t.Fatalf("replay did no work: %+v", a)
			}
		})
	}
}
