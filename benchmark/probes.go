package main

import (
	"bytes"
	"fmt"
	"time"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/cluster"
	"znscache/internal/f2fs"
	"znscache/internal/flash"
	"znscache/internal/harness"
	"znscache/internal/middle"
	"znscache/internal/ssd"
	"znscache/internal/workload"
	"znscache/internal/zns"
)

// Probes time one layer's public functions in isolation: a fixed number of
// calls on a small private instance, host nanoseconds per call (or per page,
// per block, per MiB where the call size is a choice). They carry no
// workload: the same numbers are reported with every traced run, and they
// price the counts the traced window reports (budget.coverage).

// nullStore is a RegionStore that stores nothing, so an engine over it
// costs only the engine.
type nullStore struct{ regions int }

func (n nullStore) NumRegions() int   { return n.regions }
func (n nullStore) RegionSize() int64 { return 256 << 10 }
func (n nullStore) WriteRegion(time.Duration, int, []byte) (time.Duration, error) {
	return 0, nil
}
func (n nullStore) ReadRegion(time.Duration, int, []byte, int, int64) (time.Duration, error) {
	return 0, nil
}
func (n nullStore) EvictRegion(time.Duration, int) (time.Duration, error) { return 0, nil }

// perCall times n calls of fn and returns nanoseconds per unit, where each
// call covers `units` units.
func perCall(n int, units float64, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / (float64(n) * units), nil
}

// probeGeo is a 16-zone, 16-die device with the harness's 16 MiB zones.
func probeGeo() flash.Geometry { return harness.DefaultHW(16).Geometry() }

func probeZNS(storeData bool) (*zns.Device, error) {
	return zns.New(zns.Config{
		Geometry: probeGeo(), Timing: flash.DefaultTiming(),
		BlocksPerZone: 16, StoreData: storeData,
	})
}

// runProbes fills m with every probe.* metric.
func runProbes(m map[string]float64) error {
	names := keyNames(64 << 10)
	page := payloadPool[:pageBytes]
	const regionPages = 64 // 256 KiB
	region := make([]byte, regionPages*pageBytes)
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"workload_next_ns", func() (float64, error) {
			g := workload.NewBC(workload.BCConfig{Keys: 64 << 10, Seed: 1})
			return perCall(400_000, 1, func(int) error { g.Next(); return nil })
		}},
		{"cache_set_ns", func() (float64, error) {
			eng, err := cache.New(cache.Config{Store: nullStore{1024}})
			if err != nil {
				return 0, err
			}
			return perCall(400_000, 1, func(i int) error { return eng.Set(names[i%len(names)], nil, 1024) })
		}},
		{"cache_get_open_ns", func() (float64, error) {
			// 128 small tracked values all sit in the open region buffer.
			eng, err := cache.New(cache.Config{Store: nullStore{1024}, TrackValues: true})
			if err != nil {
				return 0, err
			}
			for _, k := range names[:128] {
				if err := eng.Set(k, page[:256], 0); err != nil {
					return 0, err
				}
			}
			return perCall(400_000, 1, func(i int) error { _, _, err := eng.Get(names[i%128]); return err })
		}},
		{"cache_get_sealed_ns", func() (float64, error) {
			// Metadata-only, so the sealed path runs end to end over a store
			// that returns no bytes: index, span arithmetic, store call, LRU.
			eng, err := cache.New(cache.Config{Store: nullStore{1024}})
			if err != nil {
				return 0, err
			}
			for _, k := range names[:32<<10] {
				if err := eng.Set(k, nil, 1024); err != nil {
					return 0, err
				}
			}
			eng.Drain()
			return perCall(400_000, 1, func(i int) error { _, _, err := eng.Get(names[i%(16<<10)]); return err })
		}},
		{"middle_write_region_ns", func() (float64, error) {
			// Each region written once into free zones: placement only.
			return probeMiddle(12*64, func(i int) int { return i })
		}},
		{"middle_write_region_gc_ns", func() (float64, error) {
			// Scattered overwrites of a nearly full layer: zones die piecemeal
			// and every few writes pay a migration.
			r := newRand(1, 7)
			return probeMiddle(13*64, func(int) int { return r.IntN(13 * 64) })
		}},
		{"zns_write_ns_per_page", func() (float64, error) {
			dev, err := probeZNS(true)
			if err != nil {
				return 0, err
			}
			return perCall(12*64, regionPages, func(i int) error {
				_, err := dev.Write(0, region, len(region), int64(i)*int64(len(region)))
				return err
			})
		}},
		{"zns_read_ns_per_page", func() (float64, error) {
			dev, err := probeZNS(true)
			if err != nil {
				return 0, err
			}
			for i := 0; i < 64; i++ {
				if _, err := dev.Write(0, region, len(region), int64(i)*int64(len(region))); err != nil {
					return 0, err
				}
			}
			return perCall(4096, regionPages, func(i int) error {
				_, err := dev.Read(0, region, int64(i%64)*int64(len(region)))
				return err
			})
		}},
		{"zns_reset_ns", func() (float64, error) {
			dev, err := probeZNS(true)
			if err != nil {
				return 0, err
			}
			zone := make([]byte, dev.ZoneSize())
			for z := 0; z < 12; z++ {
				if _, err := dev.Write(0, zone, len(zone), int64(z)*dev.ZoneSize()); err != nil {
					return 0, err
				}
			}
			return perCall(12, 1, func(z int) error { _, err := dev.Reset(0, z); return err })
		}},
		{"flash_program_ns", func() (float64, error) {
			a, err := flash.NewArray(probeGeo(), flash.DefaultTiming(), true)
			if err != nil {
				return 0, err
			}
			ppb := a.Geometry().PagesPerBlock
			return perCall(48*ppb, 1, func(i int) error {
				_, err := a.Program(0, flash.Addr{Block: i / ppb, Page: i % ppb}, page)
				return err
			})
		}},
		{"flash_read_ns", func() (float64, error) {
			a, err := flash.NewArray(probeGeo(), flash.DefaultTiming(), true)
			if err != nil {
				return 0, err
			}
			ppb := a.Geometry().PagesPerBlock
			for i := 0; i < 16*ppb; i++ {
				if _, err := a.Program(0, flash.Addr{Block: i / ppb, Page: i % ppb}, page); err != nil {
					return 0, err
				}
			}
			return perCall(200_000, 1, func(i int) error {
				i %= 16 * ppb
				_, _, err := a.Read(0, flash.Addr{Block: i / ppb, Page: i % ppb})
				return err
			})
		}},
		{"f2fs_write_ns_per_block", func() (float64, error) {
			dev, err := probeZNS(false)
			if err != nil {
				return 0, err
			}
			fs, err := f2fs.Mount(dev, f2fs.Config{})
			if err != nil {
				return 0, err
			}
			const regions = 8 * 64
			file, err := fs.Create("probe", regions*int64(len(region)))
			if err != nil {
				return 0, err
			}
			// Two passes: the second overwrites, so cleaning is in the price.
			return perCall(2*regions, regionPages, func(i int) error {
				_, err := file.WriteAt(0, nil, len(region), int64(i%regions)*int64(len(region)))
				return err
			})
		}},
		{"ssd_write_ns_per_page", func() (float64, error) {
			dev, err := ssd.New(ssd.Config{Geometry: probeGeo(), Timing: flash.DefaultTiming(), OPRatio: 0.15})
			if err != nil {
				return 0, err
			}
			regions := int(dev.Size() / int64(len(region)))
			// Two passes: the second overwrites, so FTL GC is in the price.
			return perCall(2*regions, regionPages, func(i int) error {
				_, err := dev.WriteAt(0, nil, len(region), int64(i%regions)*int64(len(region)))
				return err
			})
		}},
		{"bigobj_put_ns_per_mib", func() (float64, error) {
			store, obj, err := probeBigobj()
			if err != nil {
				return 0, err
			}
			return perCall(96, 1, func(i int) error { return store.Put(names[i], bytes.NewReader(obj), 0) })
		}},
		{"bigobj_read_ns_per_mib", func() (float64, error) {
			store, obj, err := probeBigobj()
			if err != nil {
				return 0, err
			}
			for _, k := range names[:32] {
				if err := store.Put(k, bytes.NewReader(obj), 0); err != nil {
					return 0, err
				}
			}
			buf := make([]byte, len(obj))
			return perCall(256, 1, func(i int) error {
				n, err := store.ReadAt(names[i%32], buf, 0)
				if err == nil && n != len(buf) {
					err = fmt.Errorf("short read: %d", n)
				}
				return err
			})
		}},
		{"ring_owners_ns", func() (float64, error) {
			ring, err := cluster.NewRing([]string{"a", "b", "c"}, 0)
			if err != nil {
				return 0, err
			}
			dst := make([]string, 0, 2)
			return perCall(400_000, 1, func(i int) error {
				dst = ring.OwnersInto(names[i%len(names)], 2, dst[:0])
				return nil
			})
		}},
	}
	for _, p := range probes {
		v, err := p.fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m["probe."+p.name] = v
	}
	return nil
}

// probeMiddle writes n regions to a middle layer of 13 x 64 regions over a
// 16-zone device, region ids chosen by pick.
func probeMiddle(n int, pick func(i int) int) (float64, error) {
	dev, err := probeZNS(false)
	if err != nil {
		return 0, err
	}
	mid, err := middle.New(dev, middle.Config{RegionSize: 256 << 10, NumRegions: 13 * 64, OpenZones: 1, MinEmptyZones: 2})
	if err != nil {
		return 0, err
	}
	// Fill once so overwrites have something to invalidate.
	if n > 12*64 {
		for id := 0; id < 13*64; id++ {
			if _, err := mid.WriteRegion(0, id, nil); err != nil {
				return 0, err
			}
		}
	}
	return perCall(n, 1, func(i int) error { _, err := mid.WriteRegion(0, pick(i), nil); return err })
}

// probeBigobj builds a chunked store over a small Region-Cache rig, and a
// 1 MiB object to move through it.
func probeBigobj() (*bigobj.Store, []byte, error) {
	hw := harness.DefaultHW(16)
	rig, err := harness.Build(harness.RigConfig{
		Scheme: harness.RegionCache, HW: hw, CacheBytes: 12 * hw.ZoneBytes(),
		RegionBytes: cdnRegion, TrackValues: true, Admission: cache.AdmitAll{},
	})
	if err != nil {
		return nil, nil, err
	}
	store, err := bigobj.New(bigobj.Config{Backend: rig.Engine, ChunkSize: cdnChunk, Clock: rig.Clock})
	obj := bytes.Repeat(payloadPool, (1<<20)/len(payloadPool))
	return store, obj, err
}
