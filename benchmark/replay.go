package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/workload"
)

// The replay_* workloads run on one goroutine with no network: the paper's
// own experiment shape. Their length is an operation count derived from
// -seconds, not a timer, so every simulated figure is a pure function of
// (seed, seconds) and repeats to the last digit.

// Operations per requested second, fixed so that a run lasts about
// -seconds on the 2-vCPU reference host. A faster program finishes the same
// work sooner; it does not get more work.
const (
	schemeOpsPerSecond = 60_000 // per scheme: four schemes share the window
	cdnOpsPerSecond    = 3_300
)

// kv is the engine surface the replay loops drive; *cache.Cache in untraced
// runs, *tracedEngine in traced ones.
type kv interface {
	Get(key string) ([]byte, bool, error)
	SetTTL(key string, value []byte, valLen int, ttl time.Duration) error
	Delete(key string) bool
}

// retrace rebuilds rig.Engine over a decorated rig.Store, the way
// znscache.ShardedCache.Reopen rebuilds engines over the stores it kept.
// cc carries the engine settings harness.Build used for this rig; cur is
// where the caller keeps the span that store spans are children of.
func retrace(rig *harness.Rig, tr *tracer, cc cache.Config, cur *uint32) error {
	cc.Store = &tracedStore{RegionStore: rig.Store, tr: tr, cur: cur}
	cc.Clock = rig.Clock
	cc.BufferMemory = 16 << 20 // harness.RigConfig's default
	eng, err := cache.New(cc)
	if err != nil {
		return err
	}
	rig.Engine = eng
	return nil
}

// retraceEngine is retrace for the replay loops, which call the engine
// themselves: the returned decorator times those calls.
func retraceEngine(rig *harness.Rig, tr *tracer, cc cache.Config) (*tracedEngine, error) {
	te := &tracedEngine{tr: tr}
	if err := retrace(rig, tr, cc, &te.cur); err != nil {
		return nil, err
	}
	te.eng = rig.Engine
	return te, nil
}

// warm applies ops until the engine has accepted turnovers x its capacity,
// so eviction and every GC below it are in steady state and write
// amplification has levelled off before the window opens. Progress is
// checked once per `every` steps.
func warm(rig *harness.Rig, turnovers float64, every int, step func() error) error {
	target := uint64(turnovers * float64(capacity(rig)))
	for n := 0; ; n++ {
		if n%every == 0 && rig.Engine.Stats().HostWriteBytes >= target {
			return nil
		}
		if err := step(); err != nil {
			return err
		}
	}
}

// ---- replay_schemes ----

// schemePart is one of the four schemes: its rig, its copy of the trace.
type schemePart struct {
	name string
	rig  *harness.Rig
	eng  kv
	gen  *mix
	w    window // last measured window
}

type replaySchemes struct {
	sz    sizing
	names []string
	parts []*schemePart
}

// schemeRig builds one scheme the way Table 1 does: OP 15 %, region-LRU
// eviction. (Figure 2's FIFO configuration never triggers GC in any layer;
// every WA factor would read 1.00 and the layers below the engine would
// do no work worth measuring.)
func schemeRig(s harness.Scheme, zones int) (*harness.Rig, error) {
	hw := harness.DefaultHW(zones)
	const region = 256 << 10
	cfg := harness.RigConfig{
		Scheme:            s,
		HW:                hw,
		Policy:            cache.LRU,
		PolicySet:         true,
		OPRatio:           0.15,
		FSMetaOverheadSet: true, // the stated OP is all the file system gets
		CacheBytes:        int64(float64(int64(zones)*hw.ZoneBytes())*0.85) / region * region,
	}
	if s == harness.ZoneCache {
		cfg.ZoneCount = zones // whole device, no OP: zones are never GC'd
	}
	return harness.Build(cfg)
}

func (r *replaySchemes) setup(seed uint64, tr *tracer) error {
	r.parts = nil
	// Key space ~1.25x what the cache holds, so hits dominate but eviction
	// never stops.
	sizes := bcSizes()
	capBytes := float64(int64(r.sz.schemeZones)*harness.DefaultHW(1).ZoneBytes()) * 0.85
	keys := int64(1.25 * capBytes / (sizes.mean() + 32))
	r.names = keyNames(keys)
	z := newZipf(keys, 0.99)
	for _, s := range harness.AllSchemes {
		rig, err := schemeRig(s, r.sz.schemeZones)
		if err != nil {
			return err
		}
		p := &schemePart{
			name: strings.ToLower(strings.TrimSuffix(s.String(), "-Cache")),
			rig:  rig,
			eng:  rig.Engine,
			// Every scheme replays the same trace: same seed, same stream.
			gen: newMix(seed, 1, z, 50, 30, sizes),
		}
		if tr != nil {
			te, err := retraceEngine(rig, tr, cache.Config{Policy: cache.LRU})
			if err != nil {
				return err
			}
			p.eng = te
		}
		if err := warm(rig, r.sz.turnovers, 1024, func() error { return r.apply(p) }); err != nil {
			return err
		}
		r.parts = append(r.parts, p)
	}
	return nil
}

// apply replays one op with read-through fill, as CacheBench drives a cache.
func (r *replaySchemes) apply(p *schemePart) error {
	o := p.gen.next()
	key := r.names[o.key]
	switch o.kind {
	case opGet:
		_, ok, err := p.eng.Get(key)
		if err != nil {
			return err
		}
		if !ok {
			return p.eng.SetTTL(key, nil, int(o.valLen), 0)
		}
	case opSet:
		return p.eng.SetTTL(key, nil, int(o.valLen), 0)
	case opDel:
		p.eng.Delete(key)
	}
	return nil
}

func (r *replaySchemes) run(seconds float64, tr *tracer) (*window, error) {
	ns := numSlices(seconds)
	per := int(seconds*schemeOpsPerSecond) / ns
	// Untraced, one op in four is timed: two clock reads cost ~5 % of a
	// metadata-only op. Traced, every op is a span anyway.
	every := 4
	if tr.enabled() {
		every = 1
	}
	total := &window{}
	for _, p := range r.parts {
		st := one(p.rig)
		p.w = window{ops: uint64(per * ns), slices: make([]slice, ns)}
		w := &p.w
		e0 := st.open()
		settle()
		h0 := takeHost()
		for k := range w.slices {
			sl := &w.slices[k]
			sl.ops = uint64(per)
			start := time.Now()
			for i := 0; i < per; i++ {
				timed := i%every == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				err := r.apply(p)
				if timed {
					sl.lat.add(time.Since(t0))
				}
				if err != nil {
					w.failed++
				}
			}
			sl.wall = time.Since(start)
		}
		w.host = takeHost().since(h0)
		st.close(e0, w)
		w.gets, w.hits = w.c[cGets], w.c[cHits]
		total.merge(w)
	}
	// All four rigs are still reachable: the heap figure is the state of
	// the whole experiment, not of whichever scheme ran last.
	total.heap = liveHeapMiB()
	return total, nil
}

// merge adds one scheme's window into the aggregate: sums of operations,
// time on both clocks and bytes, so the aggregate ratios are
// (sum ops / sum time) and (sum NAND bytes / sum item bytes). Slices add up
// index by index: aggregate slice k is the four schemes' k-th slices.
func (w *window) merge(o *window) {
	w.ops += o.ops
	w.failed += o.failed
	w.gets += o.gets
	w.hits += o.hits
	w.host.add(o.host)
	w.sim += o.sim
	w.c.add(o.c)
	if w.slices == nil {
		w.slices = make([]slice, len(o.slices))
	}
	for k := range o.slices {
		w.slices[k].ops += o.slices[k].ops
		w.slices[k].wall += o.slices[k].wall
		w.slices[k].lat = append(w.slices[k].lat, o.slices[k].lat...)
	}
	if w.getH == nil {
		w.getH, w.setH = o.getH, o.setH
	} else {
		w.getH.Merge(o.getH)
		w.setH.Merge(o.setH)
	}
	w.items += o.items
}

func (r *replaySchemes) layers(_ *window, m map[string]float64) {
	for _, p := range r.parts {
		pm := map[string]float64{}
		p.w.endToEnd(pm)
		for _, k := range []string{"sim_ops_per_s", "hit_ratio", "wa_nand", "cpu_us_per_op"} {
			m[p.name+"."+k] = pm[k]
		}
	}
}

func (r *replaySchemes) close() { r.parts = nil }

// ---- replay_cdn ----

type replayCDN struct {
	sz     sizing
	rig    *harness.Rig
	store  *bigobj.Store
	te     *tracedEngine
	gen    *workload.CDN
	corpus []byte
	buf    []byte

	reads, objHits, fills  uint64
	servedBytes, fillBytes uint64
	putLat, readLat        lats
	s0                     bigobj.Stats
	tr                     *tracer
	req                    uint32 // span of the op in flight; parent of its bigobj calls
}

const (
	cdnRegion  = 1 << 20
	cdnChunk   = 128 << 10
	cdnMaxSize = 2 << 20
)

func (r *replayCDN) setup(seed uint64, tr *tracer) error {
	hw := harness.DefaultHW(r.sz.cdnZones)
	rig, err := harness.Build(harness.RigConfig{
		Scheme:      harness.RegionCache,
		HW:          hw,
		CacheBytes:  int64(r.sz.cdnZones) * hw.ZoneBytes() * 8 / 10,
		RegionBytes: cdnRegion,
		TrackValues: true,
		// bigobj admits whole objects; the engine must not second-guess chunks.
		Admission: cache.AdmitAll{},
	})
	if err != nil {
		return err
	}
	r.rig, r.te, r.tr = rig, nil, tr
	var backend bigobj.Backend = rig.Engine
	if tr != nil {
		if r.te, err = retraceEngine(rig, tr, cache.Config{Policy: cache.FIFO, TrackValues: true}); err != nil {
			return err
		}
		backend = r.te
	}
	if r.store, err = bigobj.New(bigobj.Config{Backend: backend, ChunkSize: cdnChunk, Clock: rig.Clock}); err != nil {
		return err
	}

	// Catalog sized so its full-body footprint is ~2x the cache: object
	// sizes are a function of (seed, id) only, so count ids until they add
	// up.
	cfg := workload.CDNConfig{Seed: seed, Objects: 1 << 30, MaxSize: cdnMaxSize}
	probe := workload.NewCDN(cfg)
	var objects, total int64
	for want := 2 * capacity(rig); total < want; objects++ {
		total += probe.SizeOf(objects)
	}
	cfg.Objects = objects
	// The hot set drifts by 1/24 of the catalog ten times per measured
	// window; TTLs are short enough on the device clock that popular
	// objects expire and are refetched within a run.
	cfg.DiurnalPeriod = int64(r.sz.seconds*cdnOpsPerSecond)/10 + 1
	cfg.TTLMin, cfg.TTLMax = 2*time.Second, 40*time.Second
	r.gen = workload.NewCDN(cfg)

	r.corpus = make([]byte, 2*cdnMaxSize)
	rng := newRand(seed, 99)
	for i := 0; i+8 <= len(r.corpus); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			r.corpus[i+j] = byte(v >> (8 * j))
		}
	}
	r.buf = make([]byte, 64<<10)

	// Turn the cache over by putting catalog objects coldest first (rank
	// order is id order until the first diurnal rotation), so the turn-overs
	// cost only writes and end with the popular half resident; then settle
	// with a tenth of a window of the real mix.
	id := objects
	err = warm(rig, r.sz.turnovers, 1, func() error {
		if id--; id < 0 {
			id = objects - 1
		}
		key, size := r.gen.KeyOf(id), r.gen.SizeOf(id)
		return r.store.Put(key, bytes.NewReader(r.origin(key, size)), r.gen.TTLOf(id))
	})
	for i := 0; err == nil && i < int(r.sz.seconds*cdnOpsPerSecond)/10; i++ {
		err = r.apply(false)
	}
	return err
}

// origin is the object's content at the origin: a slice of the corpus whose
// start depends on the key, so no two objects share bytes at equal offsets.
func (r *replayCDN) origin(key string, size int64) []byte {
	start := int64(tagOf(key, 0) % uint64(len(r.corpus)-cdnMaxSize))
	return r.corpus[start : start+size]
}

var errWrongBytes = errors.New("served bytes differ from the origin's")

// read streams [off, off+n) of key and compares every byte with the origin.
func (r *replayCDN) read(key string, want []byte, off, n int64) (int64, error) {
	rr, err := r.store.NewRangeReader(key, off, n)
	if err != nil {
		return 0, err
	}
	defer rr.Close() //nolint:errcheck // a range reader holds only pins
	var got int64
	for {
		k, err := rr.Read(r.buf)
		if k > 0 {
			if got+int64(k) > n || !bytes.Equal(r.buf[:k], want[off+got:off+got+int64(k)]) {
				return got, errWrongBytes
			}
			got += int64(k)
		}
		if err == io.EOF {
			if got != n {
				return got, errWrongBytes
			}
			return got, nil
		}
		if err != nil {
			return got, err
		}
	}
}

// apply runs one CDN op with read-through fill; timed says whether the
// bigobj calls count towards bigobj.read_us / put_us (not during warm-up).
func (r *replayCDN) apply(timed bool) error {
	op := r.gen.Next()
	if op.Delete {
		r.store.Delete(op.Key)
		return nil
	}
	want := r.origin(op.Key, op.Size)
	r.reads++
	id, t0 := r.begin(), time.Now()
	n, err := r.read(op.Key, want, op.Off, op.Len)
	r.end(spBigRead, id, t0)
	r.servedBytes += uint64(n)
	if err == nil {
		r.objHits++
		if timed {
			r.readLat.add(time.Since(t0))
		}
		return nil
	}
	if !errors.Is(err, bigobj.ErrNotFound) && !errors.Is(err, bigobj.ErrPartialObject) {
		return err
	}
	// Miss, whole or partial: fetch the whole object from the origin.
	r.fills++
	r.fillBytes += uint64(op.Size)
	id, t1 := r.begin(), time.Now()
	err = r.store.Put(op.Key, bytes.NewReader(want), op.TTL)
	r.end(spBigPut, id, t1)
	if timed {
		r.putLat.add(time.Since(t1))
	}
	return err
}

// begin reserves the span id of a bigobj call and makes it the parent of
// the engine calls bigobj is about to make; end records the call under the
// op's request span. Untraced, both do nothing.
func (r *replayCDN) begin() uint32 {
	if !r.tr.enabled() {
		return 0
	}
	r.te.up = r.tr.id()
	return r.te.up
}

func (r *replayCDN) end(kind int, id uint32, t0 time.Time) {
	if id != 0 {
		r.tr.record(kind, id, r.req, t0, time.Now(), 0)
	}
}

func (r *replayCDN) run(seconds float64, tr *tracer) (*window, error) {
	ns := numSlices(seconds)
	per := int(seconds*cdnOpsPerSecond) / ns
	w := &window{ops: uint64(per * ns), slices: make([]slice, ns)}
	r.reads, r.objHits, r.fills, r.servedBytes, r.fillBytes = 0, 0, 0, 0, 0
	r.putLat, r.readLat = nil, nil
	r.s0 = r.store.Stats()
	st := one(r.rig)
	e0 := st.open()
	settle()
	h0 := takeHost()
	for k := range w.slices {
		sl := &w.slices[k]
		sl.ops = uint64(per)
		t0 := time.Now()
		start := t0
		for i := 0; i < per; i++ {
			if tr.enabled() {
				r.req = tr.id()
			}
			err := r.apply(true)
			t1 := time.Now()
			sl.lat.add(t1.Sub(t0))
			if tr.enabled() {
				tr.record(spRequest, r.req, 0, t0, t1, 0)
			}
			if err != nil {
				w.failed++
			}
			t0 = t1
		}
		sl.wall = t0.Sub(start)
	}
	w.host = takeHost().since(h0)
	st.close(e0, w)
	w.heap = liveHeapMiB()
	if r.reads != r.objHits+r.fills {
		return nil, fmt.Errorf("replay_cdn: reads %d != object hits %d + fills %d", r.reads, r.objHits, r.fills)
	}
	// What a CDN user calls a hit is a range served whole from cache.
	w.gets, w.hits = r.reads, r.objHits
	return w, nil
}

func (r *replayCDN) layers(_ *window, m map[string]float64) {
	s1 := r.store.Stats()
	m["bigobj.put_us"] = r.putLat.mean() / 1e3
	m["bigobj.read_us"] = r.readLat.mean() / 1e3
	ch, cm := float64(s1.ChunkHits-r.s0.ChunkHits), float64(s1.ChunkMisses-r.s0.ChunkMisses)
	m["bigobj.chunk_hit_share"] = ratio(ch, ch+cm)
	m["bigobj.partial_miss_share"] = ratio(float64(s1.PartialMisses-r.s0.PartialMisses), float64(s1.Opens-r.s0.Opens))
	m["bigobj.fill_bytes_per_served_byte"] = ratio(float64(r.fillBytes), float64(r.servedBytes))
}

func (r *replayCDN) close() { r.rig, r.store, r.te = nil, nil, nil }
