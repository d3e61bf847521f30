package main

import (
	"fmt"
	"math"
	"time"

	"znscache/internal/flash"
	"znscache/internal/harness"
	"znscache/internal/stats"
)

// Counter slots read off a rig's public handles at a window edge. Every
// per-layer count in the report is a difference of two such snapshots, so
// the layers are measured from outside: nothing here is a counter the
// benchmark asked the program to add.
const (
	cItemBytes = iota // bytes of items the engine accepted (key+value+header)
	cGets
	cSets
	cDels
	cHits
	cMisses
	cFlushes
	cEvictions
	cReinserts
	cFastHits
	cStoreBytes // bytes the engine handed to its region store
	cDevBytes   // bytes the store stack handed to the device
	cZnsHost    // the part of cDevBytes that went to a ZNS device
	cNandProg   // pages programmed at the NAND array
	cNandRead
	cNandErase
	cMidGC
	cMidMigrated
	cMidHost
	cMidMedia
	cMidStalls
	cMidStallNs
	cMidGCNs
	cZnsResets
	cZnsFinishes
	cZnsFinishFill
	cFsHost
	cFsMedia
	cFsClean
	cFsCkpt
	cSsdHost
	cSsdMedia
	cSsdGC
	nCounters
)

type counters [nCounters]uint64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *counters) add(b counters) {
	for i := range a {
		a[i] += b[i]
	}
}

// array returns the rig's NAND array, whichever device type owns it.
func array(r *harness.Rig) *flash.Array {
	if r.SSD != nil {
		return r.SSD.Array()
	}
	return r.ZNS.Array()
}

// snapRig reads every public counter of one scheme assembly. The caller
// must have quiesced the rig (no request in flight).
func snapRig(r *harness.Rig) counters {
	var c counters
	st := r.Engine.Stats()
	c[cItemBytes] = st.HostWriteBytes
	c[cGets], c[cSets], c[cDels] = st.Gets, st.Sets, st.Deletes
	c[cHits], c[cMisses] = st.Hits, st.Misses
	c[cFlushes], c[cEvictions], c[cReinserts] = st.Flushes, st.Evictions, st.Reinsertions
	c[cFastHits], _, _ = r.Engine.FastReadStats()
	// The engine always flushes whole regions, padding included.
	c[cStoreBytes] = st.Flushes * uint64(r.Store.RegionSize())

	a := array(r)
	c[cNandProg], c[cNandRead], c[cNandErase] = a.Programs.Load(), a.Reads.Load(), a.Erases.Load()
	if r.SSD != nil {
		c[cDevBytes] = r.SSD.WA.Host()
		c[cSsdHost], c[cSsdMedia], c[cSsdGC] = r.SSD.WA.Host(), r.SSD.WA.Media(), r.SSD.GCRuns.Load()
	}
	if r.ZNS != nil {
		c[cDevBytes] = r.ZNS.HostWrites.Load()
		c[cZnsHost] = c[cDevBytes]
		c[cZnsResets], c[cZnsFinishes] = r.ZNS.Resets.Load(), r.ZNS.Finishes.Load()
		c[cZnsFinishFill] = r.ZNS.FinishFill.Load()
	}
	if m := r.Middle; m != nil {
		c[cMidGC], c[cMidMigrated] = m.GCRuns.Load(), m.Migrated.Load()
		c[cMidHost], c[cMidMedia] = m.WA.Host(), m.WA.Media()
		c[cMidStalls], c[cMidStallNs], c[cMidGCNs] = m.BudgetStalls.Load(), m.StallTimeNs.Load(), m.GCTimeNs.Load()
	}
	if fs := r.FS; fs != nil {
		c[cFsHost], c[cFsMedia] = fs.WA.Host(), fs.WA.Media()
		c[cFsClean], c[cFsCkpt] = fs.CleanRuns.Load(), fs.Checkpoints.Load()
	}
	return c
}

// stack is the device side of a workload: one rig per shard (serve_*), or
// a single rig (replay_*).
type stack struct {
	rigs []*harness.Rig
	// locked runs fn holding shard i's lock. The serving workloads set it:
	// their engines were last touched by the server's goroutines. Nil on
	// the single-goroutine replays.
	locked func(i int, fn func())
}

// one is the stack of a single-goroutine workload.
func one(r *harness.Rig) stack { return stack{rigs: []*harness.Rig{r}} }

// each visits every rig, under its shard lock where there is one. No
// request is in flight at a window edge, so shard-by-shard is a consistent
// cut.
func (s stack) each(fn func(r *harness.Rig)) {
	for i, r := range s.rigs {
		if s.locked == nil {
			fn(r)
		} else {
			s.locked(i, func() { fn(r) })
		}
	}
}

// edge is a window boundary on the device side.
type edge struct {
	c      counters
	clocks []time.Duration
}

// open starts a window: counters snapshotted, simulated-latency histograms
// cleared so the window's percentiles cover only the window.
func (s stack) open() edge {
	e := s.snap()
	s.each(func(r *harness.Rig) {
		r.Engine.GetLatencyHistogram().Reset()
		r.Engine.SetLatencyHistogram().Reset()
	})
	return e
}

func (s stack) snap() edge {
	var e edge
	s.each(func(r *harness.Rig) {
		r.Engine.Drain() // simulated time covers every flush issued
		e.c.add(snapRig(r))
		e.clocks = append(e.clocks, r.Clock.Now())
	})
	return e
}

// capacity is what rig r's engine manages, in bytes.
func capacity(r *harness.Rig) int64 {
	return int64(r.Store.NumRegions()) * r.Store.RegionSize()
}

// window is one measured interval of one workload (or, for replay_schemes,
// the sum of the four per-scheme intervals).
type window struct {
	ops    uint64 // operations attempted by the caller
	failed uint64
	gets   uint64 // lookups as the caller counts them, and how many hit
	hits   uint64
	host   hostDelta
	sim    time.Duration // simulated elapsed: furthest shard clock
	c      counters
	slices []slice          // the window cut into equal parts, in order
	late   lats             // open loop: how late the generator sent each batch
	getH   *stats.Histogram // simulated get/set latency, merged across rigs
	setH   *stats.Histogram
	heap   float64 // MiB, post-GC
	items  int     // indexed items at window end
}

// slice is one of the equal parts a window is cut into (by time on serve_*,
// by operation count on replay_*). Throughput and latency percentiles are
// computed per slice and the window reports the median slice: a host hiccup
// (a descheduled vCPU, a collector cycle taking one of two Ps) lands in one
// or two slices and leaves the median alone, while anything the program
// does every second moves every slice.
type slice struct {
	ops  uint64
	wall time.Duration
	lat  lats // caller-observed latency samples
}

// numSlices is one slice per second of window, at least three.
func numSlices(seconds float64) int {
	if n := int(seconds + 0.5); n > 3 {
		return n
	}
	return 3
}

// allLat pools the samples of every slice.
func (w *window) allLat() lats {
	var l lats
	for i := range w.slices {
		l = append(l, w.slices[i].lat...)
	}
	return l.sorted()
}

// median of per-slice values.
func (w *window) sliceMedian(f func(s *slice) float64) float64 {
	v := make([]float64, len(w.slices))
	for i := range w.slices {
		v[i] = f(&w.slices[i])
	}
	return median(v)
}

// close ends the window opened at e0.
func (s stack) close(e0 edge, w *window) {
	e1 := s.snap()
	w.c.add(e1.c.sub(e0.c))
	var sim time.Duration
	for i := range e1.clocks {
		if d := e1.clocks[i] - e0.clocks[i]; d > sim {
			sim = d
		}
	}
	w.sim += sim
	if w.getH == nil {
		w.getH, w.setH = stats.NewHistogram(), stats.NewHistogram()
	}
	s.each(func(r *harness.Rig) {
		w.getH.Merge(r.Engine.GetLatencyHistogram())
		w.setH.Merge(r.Engine.SetLatencyHistogram())
		w.items += r.Engine.Len()
	})
}

const pageBytes = 4096

// endToEnd derives the user-visible metrics of a window. setup is reported
// by the caller.
func (w *window) endToEnd(m map[string]float64) {
	ops := float64(w.ops)
	for i := range w.slices {
		w.slices[i].lat.sorted()
	}
	m["ops_per_s"] = w.sliceMedian(func(s *slice) float64 { return ratio(float64(s.ops), s.wall.Seconds()) })
	m["cpu_us_per_op"] = ratio(us(w.host.cpu), ops)
	m["live_heap_mib"] = w.heap
	m["lat_p50_us"] = w.sliceMedian(func(s *slice) float64 { return s.lat.q(0.50) })
	m["lat_p99_us"] = w.sliceMedian(func(s *slice) float64 { return s.lat.q(0.99) })
	m["sim_ops_per_s"] = ratio(ops, w.sim.Seconds())
	m["hit_ratio"] = ratio(float64(w.hits), float64(w.gets))
	m["wa_nand"] = w.waNand()
}

// waNand is write amplification measured at the NAND array: bytes programmed
// over item bytes the engines accepted.
func (w *window) waNand() float64 {
	return ratio(float64(w.c[cNandProg])*pageBytes, float64(w.c[cItemBytes]))
}

// waChain splits wa_nand into the three places bytes are added: the engine
// (region padding, reinsertion), the store stack (middle-layer GC, f2fs
// cleaning and node writes), the device (FTL GC, finish padding).
func (w *window) waChain() (engine, store, device float64) {
	c := &w.c
	engine = ratio(float64(c[cStoreBytes]), float64(c[cItemBytes]))
	store = ratio(float64(c[cDevBytes]), float64(c[cStoreBytes]))
	device = ratio(float64(c[cNandProg])*pageBytes, float64(c[cDevBytes]))
	return
}

// check verifies the invariants every window must satisfy; a violation is a
// failed run, not a slow one.
func (w *window) check() error {
	c := &w.c
	if c[cHits]+c[cMisses] != c[cGets] {
		return fmt.Errorf("hits %d + misses %d != gets %d", c[cHits], c[cMisses], c[cGets])
	}
	e, s, d := w.waChain()
	wa := w.waNand()
	if wa == 0 || math.Abs(e*s*d-wa) > 1e-9*wa {
		return fmt.Errorf("wa chain %.12g x %.12g x %.12g != wa_nand %.12g", e, s, d, wa)
	}
	return nil
}

// counterLayers derives the per-layer metrics that need only counters.
func (w *window) counterLayers(m map[string]float64) {
	c := &w.c
	f := func(i int) float64 { return float64(c[i]) }
	ops, kops := float64(w.ops), float64(w.ops)/1e3
	hits := f(cHits)

	all := w.allLat()
	m["lat_p999_us"] = all.q(0.999)
	m["lat_max_us"] = all.q(1)
	m["sim_get_p99_us"] = us(w.getH.Percentile(0.99))
	m["sim_set_p99_us"] = us(w.setH.Percentile(0.99))

	m["cache.fast_hit_share"] = ratio(f(cFastHits), hits)
	m["cache.flushes_per_kop"] = ratio(f(cFlushes), kops)
	m["cache.evictions_per_kop"] = ratio(f(cEvictions), kops)
	m["cache.reinserts_per_kop"] = ratio(f(cReinserts), kops)
	m["cache.heap_bytes_per_item"] = ratio(w.heap*(1<<20), float64(w.items))

	m["middle.gc_runs"] = f(cMidGC)
	m["middle.migrated_per_flush"] = ratio(f(cMidMigrated), f(cFlushes))
	m["middle.wa"] = ratio(f(cMidMedia), f(cMidHost))
	m["middle.gc_sim_share"] = ratio(f(cMidGCNs), float64(w.sim))
	m["middle.budget_stalls"] = f(cMidStalls)
	m["middle.stall_sim_ms"] = f(cMidStallNs) / 1e6

	m["zns.host_write_mib"] = f(cZnsHost) / (1 << 20)
	m["zns.resets"] = f(cZnsResets)
	m["zns.finishes"] = f(cZnsFinishes)
	m["zns.finish_fill_pages"] = f(cZnsFinishFill)

	m["f2fs.wa"] = ratio(f(cFsMedia), f(cFsHost))
	m["f2fs.clean_runs"] = f(cFsClean)
	m["f2fs.checkpoints"] = f(cFsCkpt)
	m["ssd.wa"] = ratio(f(cSsdMedia), f(cSsdHost))
	m["ssd.gc_runs"] = f(cSsdGC)

	m["flash.programs_per_op"] = ratio(f(cNandProg), ops)
	m["flash.reads_per_hit"] = ratio(f(cNandRead), hits)
	m["flash.erases"] = f(cNandErase)

	m["wa.engine"], m["wa.store"], m["wa.device"] = w.waChain()

	m["go.gc_cpu_share"] = ratio(w.host.gcCPU, w.host.cpu.Seconds())
	m["go.alloc_bytes_per_op"] = ratio(float64(w.host.allocBytes), ops)
	m["go.allocs_per_op"] = ratio(float64(w.host.allocs), ops)
}
