package harness

import "fmt"

// The small-zone hypothesis. The paper conjectures twice that Zone-Cache's
// problems are an artifact of huge zones: "If the ZNS SSD is produced with
// a small zone size (e.g., 16 or 64 MiB), Zone-Cache might be a good design
// to avoid the overhead of large region size. However, the smaller zone may
// have lower per-zone throughput which needs additional designs" (§3.2),
// and "We expect a better performance when small zone sizes (e.g., Samsung
// ZNS SSDs with 96 MiB zone size) are provided" (§4.2). This experiment
// tests that conjecture: Zone-Cache across zone sizes on constant-capacity
// hardware, with Region-Cache as the reference.

// SmallZoneRow is one zone-size data point.
type SmallZoneRow struct {
	// Label names the configuration.
	Label string `json:"label"`
	// ZoneMiB is the zone size (Zone-Cache rows) or 0 for the reference.
	ZoneMiB int          `json:"zone_mib"`
	Result  SchemeResult `json:"result"`
}

// SmallZoneParams sizes the experiment.
type SmallZoneParams struct {
	// DeviceMiB is the constant flash capacity split into zones.
	DeviceMiB int
	// ZoneSizesMiB are the Zone-Cache zone sizes to sweep.
	ZoneSizesMiB []int
	Keys         int64
	WarmupOps    int
	MeasureOps   int
	Seed         uint64
	// Env is the tracer, fault schedule and admission factory every rig of
	// the run gets.
	Env Env
}

// DefaultSmallZone returns scaled defaults: the ZN540-class 16 MiB zone
// (1077 MiB at paper scale) down to a Samsung-class 2 MiB zone (~96 MiB at
// paper scale, ratio preserved).
func DefaultSmallZone() SmallZoneParams {
	return SmallZoneParams{
		DeviceMiB:    400,
		ZoneSizesMiB: []int{16, 8, 4, 2},
		Keys:         72 << 10,
		WarmupOps:    500_000,
		MeasureOps:   400_000,
		Seed:         6,
	}
}

// RunSmallZone sweeps Zone-Cache over zone sizes and appends the
// Region-Cache reference on the 16 MiB-zone device. The zone-size points
// plus the reference are independent stacks and fan across the worker pool;
// row order is fixed.
func RunSmallZone(p SmallZoneParams) ([]SmallZoneRow, error) {
	out := make([]SmallZoneRow, len(p.ZoneSizesMiB)+1)
	err := forEachPoint(len(out), func(i int) error {
		if i < len(p.ZoneSizesMiB) {
			zm := p.ZoneSizesMiB[i]
			hw := DefaultHW(p.DeviceMiB / zm)
			hw.BlocksPerZone = zm // 1 MiB blocks
			rig, err := p.Env.build(RigConfig{
				Scheme:    ZoneCache,
				HW:        hw,
				ZoneCount: hw.actualZones(),
			})
			if err != nil {
				return fmt.Errorf("smallzone %d MiB: %w", zm, err)
			}
			out[i] = SmallZoneRow{
				Label:   fmt.Sprintf("Zone-Cache %d MiB zones", zm),
				ZoneMiB: zm,
				Result:  RunBC(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed),
			}
			return nil
		}
		// Reference: Region-Cache on the large-zone device with the usual OP.
		hw := DefaultHW(p.DeviceMiB / 16)
		rig, err := p.Env.build(RigConfig{
			Scheme:     RegionCache,
			HW:         hw,
			CacheBytes: int64(hw.actualZones()) * hw.ZoneBytes() * 20 / 25,
		})
		if err != nil {
			return fmt.Errorf("smallzone reference: %w", err)
		}
		out[i] = SmallZoneRow{
			Label:  "Region-Cache (reference)",
			Result: RunBC(rig, p.Keys, p.WarmupOps, p.MeasureOps, p.Seed),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
