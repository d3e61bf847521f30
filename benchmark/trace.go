package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/cache"
	"znscache/internal/sim"
)

// Tracing is done from the benchmark's own files, at the two seams the
// program already has: the Backend the server (or bigobj) is handed, and
// the RegionStore the engine is handed. A span is (name, start, end,
// parent); a layer's self time is its duration minus its children's.

// Span kinds. The name says which boundary the span was taken at.
const (
	spRequest    = iota // caller-observed: batch round trip, or one replay op
	spBackendGet        // server -> Backend.Get (sampled 1 in getSampleEvery)
	spExecShard         // server -> Backend.ExecShard, one shard write group
	spLockWait          // child: entry until the shard lock is held
	spExec              // child: engine work of the group, lock held
	spCacheGet          // caller -> Engine.Get
	spCacheSet          // caller -> Engine.Set / SetTTL
	spCacheDel          // caller -> Engine.Delete
	spStoreWrite        // engine -> RegionStore.WriteRegion
	spStoreRead         // engine -> RegionStore.ReadRegion
	spStoreEvict        // engine -> RegionStore.EvictRegion
	spBigPut            // caller -> bigobj.Store.Put
	spBigRead           // caller -> bigobj range read
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"request", "server.backend_get", "server.exec_shard", "cache.lock_wait", "cache.exec",
	"cache.get", "cache.set", "cache.delete",
	"store.write_region", "store.read_region", "store.evict_region",
	"bigobj.put", "bigobj.read",
}

// getSampleEvery thins Backend.Get spans on the serving path: a fast get is
// ~200 ns and two clock reads would double it.
const getSampleEvery = 8

// maxSpans bounds the spans kept for the JSON file; the per-kind totals
// below always cover every span.
const maxSpans = 100_000

type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host clock, since trace start
	End    int64  `json:"end_ns"`
	Sim    int64  `json:"sim_ns,omitempty"` // device clock: latency the callee returned
}

// kindStat aggregates every span of one kind.
type kindStat struct {
	n     uint64
	total time.Duration
	sim   time.Duration
	lat   lats
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint32

	mu    sync.Mutex
	spans []span
	kinds [nSpanKinds]kindStat
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enabled is nil-safe so untraced runs carry a nil tracer.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) id() uint32 { return t.nextID.Add(1) }

// record stores one finished span.
func (t *tracer) record(kind int, id, parent uint32, start, end time.Time, simLat time.Duration) {
	d := end.Sub(start)
	t.mu.Lock()
	k := &t.kinds[kind]
	k.n++
	k.total += d
	k.sim += simLat
	k.lat.add(d)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Name: spanNames[kind],
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Sim: int64(simLat),
		})
	}
	t.mu.Unlock()
}

// meanUs is the mean span duration of a kind, in microseconds.
func (t *tracer) meanUs(kind int) float64 {
	k := &t.kinds[kind]
	return ratio(us(k.total), float64(k.n))
}

// write dumps the retained spans.
func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"env": env, "spans": t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedStore decorates the RegionStore an engine is built over. cur is the
// span of the engine call in flight on this engine (engines are
// single-threaded under their shard lock, so a plain field suffices).
type tracedStore struct {
	cache.RegionStore
	tr  *tracer
	cur *uint32
}

func (s *tracedStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if !s.tr.enabled() {
		return s.RegionStore.WriteRegion(now, id, data)
	}
	t0 := time.Now()
	lat, err := s.RegionStore.WriteRegion(now, id, data)
	s.tr.record(spStoreWrite, s.tr.id(), *s.cur, t0, time.Now(), lat)
	return lat, err
}

func (s *tracedStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if !s.tr.enabled() {
		return s.RegionStore.ReadRegion(now, id, p, n, off)
	}
	t0 := time.Now()
	lat, err := s.RegionStore.ReadRegion(now, id, p, n, off)
	s.tr.record(spStoreRead, s.tr.id(), *s.cur, t0, time.Now(), lat)
	return lat, err
}

func (s *tracedStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	if !s.tr.enabled() {
		return s.RegionStore.EvictRegion(now, id)
	}
	t0 := time.Now()
	lat, err := s.RegionStore.EvictRegion(now, id)
	s.tr.record(spStoreEvict, s.tr.id(), *s.cur, t0, time.Now(), lat)
	return lat, err
}

// WriteSyncCost forwards the optional cache.SyncCoster extension, so an
// engine over a decorated Block- or File-Cache store simulates exactly what
// it simulates undecorated.
func (s *tracedStore) WriteSyncCost() time.Duration {
	if sc, ok := s.RegionStore.(cache.SyncCoster); ok {
		return sc.WriteSyncCost()
	}
	return 0
}

// tracedEngine decorates an engine where the caller holds it as an
// interface (bigobj's Backend), and times the replay loops' direct calls.
type tracedEngine struct {
	eng *cache.Cache
	tr  *tracer
	cur uint32 // span of the call in flight; parent of store spans
	up  uint32 // span of the caller above (a bigobj call), parent of ours
}

func (e *tracedEngine) call(kind int, fn func()) {
	if !e.tr.enabled() {
		fn()
		return
	}
	id := e.tr.id()
	e.cur = id
	t0 := time.Now()
	fn()
	e.tr.record(kind, id, e.up, t0, time.Now(), 0)
	e.cur = 0
}

func (e *tracedEngine) SetTTL(key string, value []byte, valLen int, ttl time.Duration) (err error) {
	e.call(spCacheSet, func() { err = e.eng.SetTTL(key, value, valLen, ttl) })
	return
}

func (e *tracedEngine) Get(key string) (v []byte, ok bool, err error) {
	e.call(spCacheGet, func() { v, ok, err = e.eng.Get(key) })
	return
}

func (e *tracedEngine) Delete(key string) (ok bool) {
	e.call(spCacheDel, func() { ok = e.eng.Delete(key) })
	return
}

func (e *tracedEngine) Contains(key string) bool { return e.eng.Contains(key) }

// Clock and RegionSize keep bigobj.New's optional-interface probes working.
func (e *tracedEngine) Clock() *sim.Clock { return e.eng.Clock() }
func (e *tracedEngine) RegionSize() int64 { return e.eng.RegionSize() }

// tracedBackend is the server's view of a sharded cache in traced runs:
// znscache.ShardedCache hides its engines, so the traced serving stack is
// cache.Sharded over engines rebuilt on decorated stores, behind this
// adapter. It implements server.ShardedBackend.
type tracedBackend struct {
	sh   *cache.Sharded
	tr   *tracer
	curs []uint32 // per shard: the exec span in flight (written under the shard lock)
	gets atomic.Uint32
}

func (b *tracedBackend) Get(key string) ([]byte, bool, error) {
	if !b.tr.enabled() || b.gets.Add(1)%getSampleEvery != 0 {
		return b.sh.Get(key)
	}
	t0 := time.Now()
	v, ok, err := b.sh.Get(key)
	b.tr.record(spBackendGet, b.tr.id(), 0, t0, time.Now(), 0)
	return v, ok, err
}

func (b *tracedBackend) Set(key string, value []byte) error { return b.sh.Set(key, value, 0) }

func (b *tracedBackend) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	return b.sh.SetTTL(key, value, 0, ttl)
}

func (b *tracedBackend) Delete(key string) bool  { return b.sh.Delete(key) }
func (b *tracedBackend) Len() int                { return b.sh.Len() }
func (b *tracedBackend) NumShards() int          { return b.sh.NumShards() }
func (b *tracedBackend) ShardFor(key string) int { return b.sh.ShardFor(key) }

// ExecShard splits a shard write group into the wait for the shard lock and
// the engine work done while holding it.
func (b *tracedBackend) ExecShard(i int, fn func(*cache.Cache)) error {
	if !b.tr.enabled() {
		b.sh.WithShard(i, fn)
		return nil
	}
	t0 := time.Now()
	b.sh.WithShard(i, func(eng *cache.Cache) {
		t1 := time.Now()
		group, exec := b.tr.id(), b.tr.id()
		b.curs[i] = exec
		fn(eng)
		b.curs[i] = 0
		t2 := time.Now()
		b.tr.record(spExecShard, group, 0, t0, t2, 0)
		b.tr.record(spLockWait, b.tr.id(), group, t0, t1, 0)
		b.tr.record(spExec, exec, group, t1, t2, 0)
	})
	return nil
}

// layers derives the per-layer metrics that need spans. Serving runs have
// backend_get/exec_shard spans and no cache.* ones, replay runs the
// reverse, so sums over both describe either.
func (t *tracer) layers(w *window, m map[string]float64) {
	k := &t.kinds
	ops := float64(w.ops)
	for i := range k {
		k[i].lat.sorted()
	}
	// Backend.Get spans are a 1-in-getSampleEvery sample of the gets.
	getTime := us(k[spBackendGet].total) * getSampleEvery
	backend := getTime + us(k[spExecShard].total) +
		us(k[spCacheGet].total+k[spCacheSet].total+k[spCacheDel].total)
	store := us(k[spStoreWrite].total + k[spStoreRead].total + k[spStoreEvict].total)

	m["server.backend_us_per_op"] = ratio(getTime+us(k[spExecShard].total), ops)
	m["cache.lock_wait_us_per_kop"] = ratio(us(k[spLockWait].total), ops/1e3)
	m["cache.exec_us_per_batch"] = t.meanUs(spExec)
	m["cache.self_us_per_op"] = ratio(backend-us(k[spLockWait].total)-store, ops)
	if k[spExec].n > 0 {
		writes := float64(w.c[cSets] + w.c[cDels])
		m["cache.get_ns"] = t.meanUs(spBackendGet) * 1e3
		m["cache.set_ns"] = ratio(float64(k[spExec].total), writes)
		m["cache.set_p999_us"] = k[spExec].lat.q(0.999)
	} else {
		m["cache.get_ns"] = t.meanUs(spCacheGet) * 1e3
		m["cache.set_ns"] = t.meanUs(spCacheSet) * 1e3
		m["cache.set_p999_us"] = k[spCacheSet].lat.q(0.999)
	}
	m["store.write_region_us"] = t.meanUs(spStoreWrite)
	m["store.write_region_p99_us"] = k[spStoreWrite].lat.q(0.99)
	m["store.read_region_us"] = t.meanUs(spStoreRead)
	m["store.evict_region_us"] = t.meanUs(spStoreEvict)
	m["store.sim_write_region_us"] = ratio(us(k[spStoreWrite].sim), float64(k[spStoreWrite].n))
	m["store.sim_read_region_us"] = ratio(us(k[spStoreRead].sim), float64(k[spStoreRead].n))
	m["store.reads_per_hit"] = ratio(float64(k[spStoreRead].n), float64(w.c[cHits]))
}
