// Command zonectl builds a simulated ZNS device, optionally exercises it,
// and prints a zone report — a small introspection tool in the spirit of
// the Linux blkzone utility, for poking at the model's zone state machine.
//
//	zonectl -zones 8 -zone-mib 16 -exercise seq    # fill a few zones
//	zonectl -zones 8 -exercise churn               # fill/reset cycles
//	zonectl -zones 8 -exercise cache               # run a Region-Cache on top
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/harness"
	"znscache/internal/obs"
	"znscache/internal/workload"
	"znscache/internal/zns"
)

func main() {
	var (
		zones    = flag.Int("zones", 8, "zone count")
		zoneMiB  = flag.Int("zone-mib", 16, "zone size in MiB")
		exercise = flag.String("exercise", "seq", "seq|churn|cache|none")
		ops      = flag.Int("ops", 50_000, "cache exercise op count")
		watch    = flag.Int("watch", 0, "print N per-zone snapshots (from the metrics registry) during the exercise")
	)
	flag.Parse()

	hw := harness.DefaultHW(*zones)
	hw.BlocksPerZone = *zoneMiB

	switch *exercise {
	case "cache":
		if err := cacheExercise(hw, *ops, *watch); err != nil {
			fmt.Fprintln(os.Stderr, "zonectl:", err)
			os.Exit(1)
		}
		return
	case "seq", "churn", "none":
	default:
		fmt.Fprintf(os.Stderr, "unknown exercise %q\n", *exercise)
		os.Exit(2)
	}

	dev, err := zns.New(zns.Config{
		Geometry:      hw.Geometry(),
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: hw.BlocksPerZone,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(1)
	}
	w := newWatcher(*watch, dev.ZoneSize())
	if w != nil {
		dev.MetricsInto(w.reg, obs.L("rig", "0"))
	}

	switch *exercise {
	case "seq":
		// Fill the first half of the zones sequentially.
		n := dev.NumZones() / 2
		for z := 0; z < n; z++ {
			if _, err := dev.Write(0, nil, int(dev.ZoneSize()), int64(z)*dev.ZoneSize()); err != nil {
				fmt.Fprintln(os.Stderr, "zonectl: write:", err)
				os.Exit(1)
			}
			w.maybe(z, n)
		}
	case "churn":
		// Three fill/reset laps over every zone.
		for lap := 0; lap < 3; lap++ {
			for z := 0; z < dev.NumZones(); z++ {
				if _, err := dev.Write(0, nil, int(dev.ZoneSize()), int64(z)*dev.ZoneSize()); err != nil {
					fmt.Fprintln(os.Stderr, "zonectl: write:", err)
					os.Exit(1)
				}
				if _, err := dev.Reset(0, z); err != nil {
					fmt.Fprintln(os.Stderr, "zonectl: reset:", err)
					os.Exit(1)
				}
				w.maybe(lap*dev.NumZones()+z, 3*dev.NumZones())
			}
		}
	}
	report(dev)
}

// watcher prints periodic per-zone snapshots sourced from the metrics
// registry — the same zns_zone_* gauges a live /metrics scrape would see —
// rather than from the device directly, so watch output and exposition can
// never disagree.
type watcher struct {
	reg      *obs.Registry
	zoneSize int64
	want     int
	printed  int
}

// newWatcher returns nil when n snapshots were not requested; a nil watcher's
// maybe is a no-op, so call sites need no guards.
func newWatcher(n int, zoneSize int64) *watcher {
	if n <= 0 {
		return nil
	}
	return &watcher{reg: obs.NewRegistry(), zoneSize: zoneSize, want: n}
}

// maybe emits a snapshot when step i of total crosses the next of the n
// evenly spaced sample points.
func (w *watcher) maybe(i, total int) {
	if w == nil || total <= 0 {
		return
	}
	due := (i + 1) * w.want / total
	if due <= w.printed {
		return
	}
	w.printed = due
	w.dump(i+1, total)
}

// dump renders one compact per-zone line: a state glyph per zone
// (E=empty O=open C=closed F=full, grouped by 8) plus aggregate occupancy
// and reset totals read from the gauges.
func (w *watcher) dump(i, total int) {
	type zrow struct {
		state, wp, resets float64
	}
	rows := map[int]*zrow{}
	maxZone := -1
	for _, s := range w.reg.Gather() {
		zl := s.Labels.Get("zone")
		if zl == "" {
			continue
		}
		z, err := strconv.Atoi(zl)
		if err != nil {
			continue
		}
		r := rows[z]
		if r == nil {
			r = &zrow{}
			rows[z] = r
		}
		if z > maxZone {
			maxZone = z
		}
		switch s.Name {
		case "zns_zone_state":
			r.state = s.Value
		case "zns_zone_wp_bytes":
			r.wp = s.Value
		case "zns_zone_reset_count":
			r.resets = s.Value
		}
	}
	glyphs := []byte{'E', 'O', 'C', 'F'}
	var line []byte
	var wp, resets float64
	for z := 0; z <= maxZone; z++ {
		if z > 0 && z%8 == 0 {
			line = append(line, ' ')
		}
		g := byte('?')
		if r := rows[z]; r != nil {
			if s := int(r.state); s >= 0 && s < len(glyphs) {
				g = glyphs[s]
			}
			wp += r.wp
			resets += r.resets
		}
		line = append(line, g)
	}
	occ := 0.0
	if maxZone >= 0 && w.zoneSize > 0 {
		occ = wp / (float64(maxZone+1) * float64(w.zoneSize)) * 100
	}
	fmt.Printf("watch %d/%d [%s] occupancy %5.1f%%  resets %.0f\n",
		i, total, line, occ, resets)
}

func report(dev *zns.Device) {
	fmt.Printf("device: %d zones × %d MiB = %d MiB, max %d open zones\n",
		dev.NumZones(), dev.ZoneSize()>>20, dev.Size()>>20, dev.MaxOpenZones())
	fmt.Printf("%-6s %-8s %12s %8s\n", "zone", "state", "wp", "resets")
	for _, z := range dev.Zones() {
		fmt.Printf("%-6d %-8s %12d %8d\n", z.Index, z.State, z.WP, z.Resets)
	}
	fmt.Printf("totals: %d sectors written, %d resets, %d flash erases (max wear %d)\n",
		dev.HostWrites.Load()/device.SectorSize, dev.Resets.Load(),
		dev.Array().TotalErases(), dev.Array().MaxEraseCount())
}

// cacheExercise runs a Region-Cache over the device and reports both the
// cache view and the zone view — showing how region churn maps to zone
// lifecycle.
func cacheExercise(hw harness.HWProfile, ops, watch int) error {
	w := newWatcher(watch, 0)
	if w != nil {
		harness.SetMetricsRegistry(w.reg)
	}
	rig, err := harness.Build(harness.RigConfig{
		Scheme: harness.RegionCache,
		HW:     hw,
	})
	if err != nil {
		return err
	}
	if w != nil {
		w.zoneSize = rig.ZNS.ZoneSize()
	}
	gen := workload.NewBC(workload.BCConfig{Keys: 16 << 10, Seed: 1})
	for i := 0; i < ops; i++ {
		harness.ReadThrough(rig.Engine, gen.Next())
		w.maybe(i, ops)
	}
	st := rig.Engine.Stats()
	fmt.Printf("cache: %d ops in %v simulated — hit %.2f%%, %d evictions, WAF %.2f\n",
		st.Gets+st.Sets+st.Deletes, st.SimulatedTime, st.HitRatio*100,
		st.Evictions, rig.WAFactor())
	fmt.Printf("middle layer: %d GC runs, %d regions migrated, %d dropped, %d empty zones\n\n",
		rig.Middle.GCRuns.Load(), rig.Middle.Migrated.Load(), rig.Middle.Dropped.Load(), rig.Middle.EmptyZones())
	report(rig.ZNS)
	return nil
}
