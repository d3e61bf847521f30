package harness

import (
	"fmt"
	"time"
)

// ContractsRow is one (scheme, zone-resource limit) cell of the unwritten-
// contracts sweep: the bc-mix result plus the middle layer's budget-pressure
// counters. Block-Cache runs on a conventional SSD and ignores the limits —
// it is the flat control row the zoned schemes are read against.
type ContractsRow struct {
	Scheme Scheme `json:"scheme"`
	// MaxOpen / MaxActive are the device limits the row ran under.
	MaxOpen   int          `json:"max_open_zones"`
	MaxActive int          `json:"max_active_zones"`
	Result    SchemeResult `json:"result"`
	// BudgetStalls / ZoneFinishes / StallTime are Region-Cache's middle-layer
	// budget counters (zero for the other schemes): flushes that had to
	// close, finish, or reset another zone before the device would accept
	// them, zones finished early, and the simulated time lost to that work.
	BudgetStalls uint64        `json:"budget_stalls"`
	ZoneFinishes uint64        `json:"zone_finishes"`
	StallTime    time.Duration `json:"stall_ns"`
}

// ContractsParams sizes the unwritten-contracts sweep (the §2 zone-resource
// limits the paper calls out: max open zones, max active zones). Every
// (scheme, limit) pair reruns the Figure 2 rig with the device's open-zone
// cap forced to the limit and the active budget to limit+ActiveSlack.
type ContractsParams struct {
	Zones      int
	Keys       int64
	WarmupOps  int
	MeasureOps int
	Seed       uint64
	// Limits are the open-zone caps to sweep (descending; the first should
	// be the device default so the leftmost column is the baseline).
	Limits []int
	// ActiveSlack is how many active slots the device grants beyond the
	// open cap (real devices report active ≥ open; ZN540: equal). Slack
	// above zero lets a scheme keep zones closed-but-unfinished when the
	// open cap pinches — the regime where open-cap churn shows up as
	// budget stalls rather than hard errors.
	ActiveSlack int
	// MiddleOpenZones is how many zones Region-Cache's middle layer wants
	// to write concurrently — its working set. Limits below it are where
	// the contract starts to bite (default 4).
	MiddleOpenZones int
	Schemes         []Scheme
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultContracts returns scaled defaults: the ZN540 default cap down to a
// single open zone, two active slots of slack, and a middle layer sized for
// four concurrent zones.
func DefaultContracts() ContractsParams {
	return ContractsParams{
		Zones:           25,
		Keys:            72 << 10,
		WarmupOps:       400_000,
		MeasureOps:      300_000,
		Seed:            1,
		Limits:          []int{14, 8, 4, 2, 1},
		ActiveSlack:     2,
		MiddleOpenZones: 4,
		Schemes:         AllSchemes,
	}
}

// fileCacheMinOpen is the smallest open-zone cap File-Cache can run under:
// f2fs appends through two log heads (data and node), so it holds two zones
// open at once by construction. Below that the scheme does not degrade — it
// stops working, which is itself a finding the sweep reports by omission.
const fileCacheMinOpen = 2

// RunContracts sweeps the zone-resource limits across the schemes: for each
// (scheme, limit) pair the Figure 2 rig is rebuilt with MaxOpenZones=limit
// and MaxActiveZones=limit+ActiveSlack, and the bc mix rerun. Rows come
// back scheme-major in Schemes order, limits in the given order; File-Cache
// rows below its structural minimum are omitted.
func RunContracts(p ContractsParams) ([]ContractsRow, error) {
	if len(p.Schemes) == 0 {
		p.Schemes = AllSchemes
	}
	if len(p.Limits) == 0 {
		p.Limits = []int{14, 8, 4, 2, 1}
	}
	if p.MiddleOpenZones == 0 {
		p.MiddleOpenZones = 4
	}
	hw := DefaultHW(p.Zones)

	type point struct {
		scheme Scheme
		limit  int
	}
	var points []point
	for _, s := range p.Schemes {
		for _, l := range p.Limits {
			if s == FileCache && l < fileCacheMinOpen {
				continue
			}
			points = append(points, point{s, l})
		}
	}

	rows := make([]ContractsRow, len(points))
	err := forEachPoint(len(points), func(i int) error {
		pt := points[i]
		cfg := fig2RigConfig(pt.scheme, hw)
		cfg.MaxOpenZones = pt.limit
		cfg.MaxActiveZones = pt.limit + p.ActiveSlack
		cfg.MiddleOpenZones = p.MiddleOpenZones
		rig, err := p.Env.build(cfg)
		if err != nil {
			return fmt.Errorf("contracts %v open=%d: %w", pt.scheme, pt.limit, err)
		}
		row := ContractsRow{
			Scheme:    pt.scheme,
			MaxOpen:   pt.limit,
			MaxActive: pt.limit + p.ActiveSlack,
			Result:    RunBC(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed),
		}
		if rig.Middle != nil {
			row.BudgetStalls = rig.Middle.BudgetStalls.Load()
			row.ZoneFinishes = rig.Middle.ZoneFinishes.Load()
			row.StallTime = time.Duration(rig.Middle.StallTimeNs.Load())
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
