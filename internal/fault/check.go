package fault

import (
	"fmt"
	"strings"

	"znscache/internal/zns"
)

// CheckZoneContract audits a zoned device's visible state against the ZNS
// written contract — every write pointer within [0, zone size], empty zones
// at wp 0, full zones at wp == zone size, closed zones strictly between,
// no more open zones than the device's cap — and the zone-resource budget:
// open + closed zones must match the device's reported active count and
// stay within the active budget, which itself can never sit below the open
// cap. Tests call it after any run that touched a zoned device; a non-nil
// error lists every violation.
//
// It deliberately takes the zns.Zoned interface so the same check runs
// against the raw device and against the fault wrapper (whose CheckContract
// additionally replays the per-operation monotonicity audit).
func CheckZoneContract(dev zns.Zoned) error {
	var bad []string
	size := dev.ZoneSize()
	open, active := 0, 0
	for z := 0; z < dev.NumZones(); z++ {
		info, err := dev.ZoneInfo(z)
		if err != nil {
			bad = append(bad, fmt.Sprintf("zone %d: info: %v", z, err))
			continue
		}
		if info.WP < 0 || info.WP > size {
			bad = append(bad, fmt.Sprintf("zone %d: wp %d outside [0, %d]", z, info.WP, size))
		}
		switch info.State {
		case zns.ZoneEmpty:
			if info.WP != 0 {
				bad = append(bad, fmt.Sprintf("zone %d: EMPTY with wp %d", z, info.WP))
			}
		case zns.ZoneFull:
			if info.WP != size {
				bad = append(bad, fmt.Sprintf("zone %d: FULL with wp %d != %d", z, info.WP, size))
			}
		case zns.ZoneOpen, zns.ZoneClosed:
			// A zone holding resources has been written: the first write is
			// what opens it.
			if info.WP == 0 || info.WP > size {
				bad = append(bad, fmt.Sprintf("zone %d: %v with wp %d", z, info.State, info.WP))
			}
			if info.State == zns.ZoneOpen {
				open++
			}
			active++
		default:
			bad = append(bad, fmt.Sprintf("zone %d: unknown state %v", z, info.State))
		}
	}
	if cap := dev.MaxOpenZones(); open > cap {
		bad = append(bad, fmt.Sprintf("%d zones open, cap %d", open, cap))
	}
	if got := dev.OpenZones(); got > dev.MaxOpenZones() {
		bad = append(bad, fmt.Sprintf("device reports %d open zones, cap %d", got, dev.MaxOpenZones()))
	}
	if budget := dev.MaxActiveZones(); budget < dev.MaxOpenZones() {
		bad = append(bad, fmt.Sprintf("active budget %d below open cap %d", budget, dev.MaxOpenZones()))
	}
	if budget := dev.MaxActiveZones(); active > budget {
		bad = append(bad, fmt.Sprintf("%d zones active, budget %d", active, budget))
	}
	if got := dev.ActiveZones(); got != active {
		bad = append(bad, fmt.Sprintf("device reports %d active zones, states say %d", got, active))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("fault: zone contract violated:\n  %s", strings.Join(bad, "\n  "))
}
