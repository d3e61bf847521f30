package harness

import (
	"fmt"
	"io"

	"znscache/internal/cache"
)

// AdmissionRow is one (scheme, admission policy) cell of the admission
// sweep: the usual bc-mix result plus the write-path quantities admission
// control exists to trade — device bytes written against hit ratio.
type AdmissionRow struct {
	Scheme Scheme `json:"scheme"`
	// Policy is the admission spec the row ran under ("all", "reject-first",
	// "frequency", "dynamic-random", ...).
	Policy string       `json:"policy"`
	Result SchemeResult `json:"result"`
	// HostWriteBytes / DeviceWriteBytes are measured-window byte deltas; the
	// device figure includes region padding and GC, so DeviceWriteBytes /
	// HostWriteBytes is the end-to-end write cost per accepted item byte.
	HostWriteBytes   uint64 `json:"host_write_bytes"`
	DeviceWriteBytes uint64 `json:"device_write_bytes"`
	// DeviceBytesPerSec is DeviceWriteBytes over the measured simulated time.
	DeviceBytesPerSec float64 `json:"device_bytes_per_sec"`
	// BudgetBytesPerSec is dynamic-random's configured device-write budget
	// (0 for every other policy).
	BudgetBytesPerSec float64 `json:"budget_bytes_per_sec"`
	// AdmitRejects counts inserts the policy refused in the window.
	AdmitRejects uint64 `json:"admit_rejects"`
}

// AdmissionSweepParams sizes the admission sweep. The sweep runs in two
// phases: phase one measures each scheme's unconstrained device-write rate
// under admit-all (those runs double as the "all" rows), phase two replays
// the same workload under every other policy, with dynamic-random's budget
// set to BudgetFraction of the scheme's own unconstrained rate — so the
// budget is always a meaningful constraint, at any workload scale.
type AdmissionSweepParams struct {
	Zones      int
	Keys       int64
	WarmupOps  int
	MeasureOps int
	Seed       uint64
	// Policies are admission specs (see cache.ParseAdmission). "all" is
	// always run (it is the phase-one baseline) and need not be listed.
	Policies []string
	// BudgetFraction scales each scheme's unconstrained device-write rate
	// into dynamic-random's budget (default 0.5).
	BudgetFraction float64
	// BudgetBytesPerSec, when positive, overrides BudgetFraction with an
	// absolute device-write budget shared by all schemes.
	BudgetBytesPerSec float64
	Schemes           []Scheme
	// Env is the tracer and fault schedule every rig of the sweep gets; the
	// sweep sets every rig's admission itself.
	Env Env
}

// DefaultAdmissionSweep returns scaled defaults matching the Figure 2 rig.
func DefaultAdmissionSweep() AdmissionSweepParams {
	return AdmissionSweepParams{
		Zones:      25,
		Keys:       72 << 10,
		WarmupOps:  500_000,
		MeasureOps: 400_000,
		Seed:       11,
		Policies:   []string{"reject-first", "frequency", "dynamic-random"},
		Schemes:    AllSchemes,
	}
}

// RunAdmissionSweep measures hit ratio, write amplification, and device
// bytes written for every (scheme, admission policy) pair — the §4.3
// write-bandwidth/lifetime axis with admission control as the lever. Rows
// come back scheme-major in AllSchemes order, "all" first within a scheme.
func RunAdmissionSweep(p AdmissionSweepParams) ([]AdmissionRow, error) {
	if p.BudgetFraction == 0 {
		p.BudgetFraction = 0.5
	}
	if len(p.Schemes) == 0 {
		p.Schemes = AllSchemes
	}
	hw := DefaultHW(p.Zones)

	// Phase one: unconstrained baselines, one per scheme, in parallel. These
	// are the "all" rows and the denominators for the dynamic-random budget.
	baselines := make([]measuredBC, len(p.Schemes))
	err := forEachPoint(len(p.Schemes), func(i int) error {
		cfg := fig2RigConfig(p.Schemes[i], hw)
		cfg.Admission = cache.AdmitAll{}
		rig, err := p.Env.build(cfg)
		if err != nil {
			return fmt.Errorf("admission %v baseline: %w", p.Schemes[i], err)
		}
		baselines[i] = runBCMeasured(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase two: every remaining (scheme, policy) point, in parallel. Points
	// are enumerated before the fan-out, so seeds — and therefore rows — are
	// identical no matter how the worker pool schedules them.
	type point struct {
		schemeIdx int
		policy    string
		budget    float64 // dynamic-random only
	}
	var points []point
	for i := range p.Schemes {
		base := baselines[i]
		rate := 0.0
		if base.SimTime > 0 {
			rate = float64(base.DeviceWriteBytes) / base.SimTime.Seconds()
		}
		for _, spec := range p.Policies {
			if spec == "all" || spec == "" || spec == "none" {
				continue // already the baseline
			}
			budget := p.BudgetBytesPerSec
			if budget <= 0 {
				budget = rate * p.BudgetFraction
			}
			points = append(points, point{schemeIdx: i, policy: spec, budget: budget})
		}
	}
	results := make([]AdmissionRow, len(points))
	err = forEachPoint(len(points), func(i int) error {
		pt := points[i]
		s := p.Schemes[pt.schemeIdx]
		factory, err := cache.ParseAdmission(pt.policy, pt.budget)
		if err != nil {
			return fmt.Errorf("admission %v %q: %w", s, pt.policy, err)
		}
		cfg := fig2RigConfig(s, hw)
		cfg.Admission = factory
		cfg.AdmissionSeed = cache.ShardSeed(p.Seed, i)
		rig, err := p.Env.build(cfg)
		if err != nil {
			return fmt.Errorf("admission %v %q: %w", s, pt.policy, err)
		}
		m := runBCMeasured(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed)
		row := admissionRow(s, pt.policy, m)
		if _, isDyn := factory.(cache.DynamicRandomFactory); isDyn {
			row.BudgetBytesPerSec = pt.budget
		}
		results[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble scheme-major: baseline first, then the policies in order.
	rows := make([]AdmissionRow, 0, len(p.Schemes)+len(points))
	pi := 0
	for i, s := range p.Schemes {
		rows = append(rows, admissionRow(s, "all", baselines[i]))
		for pi < len(points) && points[pi].schemeIdx == i {
			rows = append(rows, results[pi])
			pi++
		}
	}
	return rows, nil
}

func admissionRow(s Scheme, policy string, m measuredBC) AdmissionRow {
	rate := 0.0
	if m.SimTime > 0 {
		rate = float64(m.DeviceWriteBytes) / m.SimTime.Seconds()
	}
	return AdmissionRow{
		Scheme:            s,
		Policy:            policy,
		Result:            m.SchemeResult,
		HostWriteBytes:    m.HostWriteBytes,
		DeviceWriteBytes:  m.DeviceWriteBytes,
		DeviceBytesPerSec: rate,
		AdmitRejects:      m.AdmitRejects,
	}
}

// PrintAdmission renders the admission sweep: the hit-ratio price paid for
// each policy's device-write savings, plus dynamic-random's budget tracking.
func PrintAdmission(w io.Writer, rows []AdmissionRow) {
	fmt.Fprintln(w, "Admission sweep — hit ratio vs device bytes written per policy")
	fmt.Fprintf(w, "%-14s %-15s %10s %8s %10s %12s %12s %10s\n",
		"scheme", "policy", "hit-ratio", "WAF", "dev-MiB", "dev-MiB/s", "budget-MiB/s", "rejects")
	const mib = 1 << 20
	for _, r := range rows {
		budget := "-"
		if r.BudgetBytesPerSec > 0 {
			budget = fmt.Sprintf("%.1f", r.BudgetBytesPerSec/mib)
		}
		fmt.Fprintf(w, "%-14s %-15s %9.2f%% %8.2f %10.1f %12.1f %12s %10d\n",
			r.Scheme, r.Policy, r.Result.HitRatio*100, r.Result.WAFactor,
			float64(r.DeviceWriteBytes)/mib, r.DeviceBytesPerSec/mib, budget,
			r.AdmitRejects)
	}
}
