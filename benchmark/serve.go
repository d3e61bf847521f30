package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"znscache"
	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/obs"
	"znscache/internal/server"
)

// The serve_* workloads run cacheserver's stack in-process: server.New over
// a 4-shard Region-Cache built the way cmd/cacheserver builds it by default
// (TrackValues, FastReads, metrics registry installed, spans off), driven
// over loopback TCP by this file's generator. Set-up never touches a
// socket: one goroutine calls the backend directly.

const (
	serveShards = 4
	flagBytes   = 4 // the server stores client flags as a value prefix
)

// serveBench is serve_get_hot or serve_churn_open, depending on its fields.
type serveBench struct {
	name string
	// Device and key space.
	zones int
	keys  int64
	// Traffic.
	getPct, setPct int // the rest are deletes
	sizes          sizeDist
	conns, depth   int
	rate           float64 // requests/s over all connections; 0 = closed loop
	fillOnMiss     bool
	turnovers      float64 // 0: pre-fill every key once instead
	cacheFrac      float64 // share of the device handed to the engines

	seed  uint64
	round uint64 // window number, so no two windows share a stream
	names []string
	z     *zipf

	reg     *obs.Registry
	backend server.Backend
	st      stack
	srv     *server.Server
	served  chan error
	self    float64 // server.self_us_per_op, measured once per traced run
}

func newServeGetHot(sz sizing) *serveBench {
	return &serveBench{
		name:  "serve_get_hot",
		zones: sz.hotZones, keys: sz.hotKeys,
		getPct: 95, setPct: 5,
		sizes: sizeDist{lo: 128, hi: 512},
		conns: 2, depth: 32,
		cacheFrac: 0.8,
	}
}

func newServeChurnOpen(sz sizing) *serveBench {
	b := &serveBench{
		name:   "serve_churn_open",
		zones:  sz.churnZones,
		getPct: 50, setPct: 30,
		sizes: bcSizes(),
		conns: 2, depth: 16,
		rate:       sz.churnRate,
		fillOnMiss: true,
		turnovers:  sz.turnovers,
		// Half the device. With 8 zones per shard the middle layer needs two
		// open and two empty zones, which leaves four for data: at exactly
		// half, FIFO eviction kills zones whole and GC is a reset on the
		// request path, never a migration. Anything above half migrates
		// ~30 regions per GC under the shard lock (25 ms stalls, WA 1.9):
		// at 30 k req/s that is 10 % of the window stalled, and a host that
		// runs 1.5x slower for a minute doubles the median latency, so the
		// figures do not repeat. cacheserver's 80 % default on this device
		// is WA 64 and a 14 k req/s ceiling.
		cacheFrac: 0.5,
	}
	// Key space ~2x what the cache holds: hit ratio ~0.8 under zipf 0.99.
	capBytes := float64(int64(sz.churnZones)*harness.DefaultHW(1).ZoneBytes()) * b.cacheFrac
	b.keys = int64(2 * capBytes / (b.sizes.mean() + 36))
	return b
}

func (b *serveBench) setup(seed uint64, tr *tracer) error {
	b.close()
	b.seed, b.round = seed, 0
	if b.names == nil {
		b.names = keyNames(b.keys)
		b.z = newZipf(b.keys, 0.99)
	}
	// cacheserver installs the registry before building the cache, so every
	// layer of every shard registers its series.
	b.reg = obs.NewRegistry()
	harness.SetMetricsRegistry(b.reg)
	defer harness.SetMetricsRegistry(nil)

	if tr == nil {
		c, err := znscache.OpenSharded(znscache.ShardedConfig{
			Config: znscache.Config{
				Scheme:      znscache.RegionCache,
				Zones:       b.zones,
				CacheBytes:  b.cacheBytes(),
				TrackValues: true,
				FastReads:   true,
			},
			Shards: serveShards,
		})
		if err != nil {
			return err
		}
		b.backend = c
		b.st = stack{locked: func(i int, fn func()) {
			c.ExecShard(i, func(*cache.Cache) { fn() }) //nolint:errcheck // never closed
		}}
		for i := 0; i < serveShards; i++ {
			b.st.rigs = append(b.st.rigs, c.Rig(i))
		}
	} else if err := b.setupTraced(tr); err != nil {
		return err
	}

	srv, err := server.New(server.Config{Backend: b.backend})
	if err != nil {
		return err
	}
	srv.MetricsInto(b.reg, obs.L("job", "cacheserver"))
	obs.LockMetricsInto(b.reg, obs.L("job", "cacheserver"))
	b.srv, b.served = srv, make(chan error, 1)
	go func() { b.served <- srv.Serve() }()
	return b.fill()
}

// cacheBytes is the capacity handed to the engines, over all shards.
func (b *serveBench) cacheBytes() int64 {
	const mib = 1 << 20
	return int64(float64(int64(b.zones)*harness.DefaultHW(1).ZoneBytes())*b.cacheFrac) / mib * mib
}

// setupTraced builds what OpenSharded builds, shard by shard, with each
// engine rebuilt over a decorated store.
func (b *serveBench) setupTraced(tr *tracer) error {
	per := b.zones / serveShards
	hw := harness.DefaultHW(per)
	tb := &tracedBackend{tr: tr, curs: make([]uint32, serveShards)}
	b.st = stack{}
	engines := make([]*cache.Cache, serveShards)
	for i := range engines {
		rig, err := harness.Build(harness.RigConfig{
			Scheme:        harness.RegionCache,
			HW:            hw,
			CacheBytes:    b.cacheBytes() / serveShards,
			TrackValues:   true,
			ReadIndex:     true,
			AdmissionSeed: cache.ShardSeed(0, i),
		})
		if err != nil {
			return err
		}
		cc := cache.Config{Policy: cache.FIFO, TrackValues: true, ReadIndex: true}
		if err := retrace(rig, tr, cc, &tb.curs[i]); err != nil {
			return err
		}
		b.st.rigs = append(b.st.rigs, rig)
		engines[i] = rig.Engine
	}
	sh, err := cache.NewSharded(engines)
	if err != nil {
		return err
	}
	tb.sh = sh
	b.backend = tb
	b.st.locked = func(i int, fn func()) { sh.WithShard(i, func(*cache.Cache) { fn() }) }
	return nil
}

// value builds the stored form of key's n-byte payload: flags, then payload.
func value(buf []byte, key string, n int) []byte {
	buf[0], buf[1], buf[2], buf[3] = 0, 0, 0, 0
	putPayload(buf[flagBytes:], key, n)
	return buf[:flagBytes+n]
}

// fill brings the cache to the state the window starts from, through the
// backend's own methods. serve_get_hot stores every key once; the churn
// workload applies its own mix until every shard has turned over.
func (b *serveBench) fill() error {
	buf := make([]byte, flagBytes+len(payloadPool))
	r := newRand(b.seed, 2)
	if b.turnovers == 0 {
		for _, key := range b.names {
			if err := b.backend.Set(key, value(buf, key, int(b.sizes.next(r)))); err != nil {
				return err
			}
		}
		return nil
	}
	g := newMix(b.seed, 3, b.z, b.getPct, b.setPct, b.sizes)
	for n := 0; ; n++ {
		if n%4096 == 0 && b.turnedOver() {
			return nil
		}
		o := g.next()
		key := b.names[o.key]
		switch o.kind {
		case opGet:
			_, ok, err := b.backend.Get(key)
			if err != nil {
				return err
			}
			if ok || !b.fillOnMiss {
				break
			}
			fallthrough
		case opSet:
			if err := b.backend.Set(key, value(buf, key, int(o.valLen))); err != nil {
				return err
			}
		case opDel:
			b.backend.Delete(key)
		}
	}
}

// turnedOver reports whether every shard has accepted turnovers x its
// capacity.
func (b *serveBench) turnedOver() bool {
	done := true
	b.st.each(func(rig *harness.Rig) {
		if float64(rig.Engine.Stats().HostWriteBytes) < b.turnovers*float64(capacity(rig)) {
			done = false
		}
	})
	return done
}

// connResult is what one connection's loop observed.
type connResult struct {
	failed, gets, hits uint64
	slices             []slice
	late               lats
	err                error
}

func (b *serveBench) run(seconds float64, tr *tracer) (*window, error) {
	w, err := b.drive(b.srv.Addr(), seconds, tr, true)
	if err != nil {
		return nil, err
	}
	// Every lookup in the window was ours, so the engine's own count of
	// them must match what came back over the wire.
	if w.c[cGets] != w.gets || w.c[cHits] != w.hits {
		return nil, fmt.Errorf("%s: client saw %d gets / %d hits, engines counted %d / %d",
			b.name, w.gets, w.hits, w.c[cGets], w.c[cHits])
	}
	return w, nil
}

// drive runs one window of traffic against addr. With onStack false the
// server at addr is not backed by b.st (the no-op backend probe).
func (b *serveBench) drive(addr string, seconds float64, tr *tracer, onStack bool) (*window, error) {
	b.round++
	clients := make([]*server.Client, b.conns)
	for i := range clients {
		cl, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close() //nolint:errcheck // the window is over
		clients[i] = cl
	}
	w := &window{}
	var e0 edge
	if onStack {
		e0 = b.st.open()
	}
	res := make([]connResult, b.conns)
	ns := numSlices(seconds)
	sliceDur := time.Duration(seconds * float64(time.Second) / float64(ns))
	w.slices = make([]slice, ns)
	var wg sync.WaitGroup
	settle()
	h0 := takeHost()
	deadline := h0.wall.Add(sliceDur * time.Duration(ns))
	for i := range clients {
		wg.Add(1)
		res[i].slices = make([]slice, ns)
		go func(i int) {
			defer wg.Done()
			b.runConn(clients[i], i, h0.wall, deadline, sliceDur, tr, onStack, &res[i])
		}(i)
	}
	wg.Wait()
	w.host = takeHost().since(h0)
	for i := range res {
		r := &res[i]
		if r.err != nil {
			return nil, fmt.Errorf("%s: connection %d: %w", b.name, i, r.err)
		}
		w.failed += r.failed
		w.gets += r.gets
		w.hits += r.hits
		for k := range r.slices {
			w.ops += r.slices[k].ops
			w.slices[k].ops += r.slices[k].ops
			w.slices[k].wall = sliceDur
			w.slices[k].lat = append(w.slices[k].lat, r.slices[k].lat...)
		}
		w.late = append(w.late, r.late...)
	}
	if onStack {
		b.st.close(e0, w)
		w.heap = liveHeapMiB()
	}
	return w, nil
}

// pending remembers what each queued request was.
type pending struct {
	kind   opKind
	key    int32
	valLen int32
}

// runConn is one connection's request loop: closed (next batch as soon as
// the previous one is answered) or open (batches due on a fixed schedule,
// latency counted from the due time so a stall is charged to every batch it
// delays).
func (b *serveBench) runConn(cl *server.Client, idx int, start, deadline time.Time,
	sliceDur time.Duration, tr *tracer, verify bool, out *connResult) {

	g := newMix(b.seed, 16*b.round+uint64(idx)+100, b.z, b.getPct, b.setPct, b.sizes)
	buf := make([]byte, len(payloadPool))
	batch := make([]pending, 0, b.depth)
	var fills []pending

	var interval time.Duration
	due, free := start, start // next batch due; connection free since
	if b.rate > 0 {
		interval = time.Duration(float64(b.depth) * float64(b.conns) / b.rate * float64(time.Second))
		due = start.Add(interval * time.Duration(idx) / time.Duration(b.conns))
	}
	for {
		if interval == 0 {
			due = time.Now()
		}
		if !due.Before(deadline) {
			return
		}
		batch = batch[:0]
		// Fills for the previous batch's misses ride ahead of fresh ops,
		// inside the same batch size, so the offered rate stays pinned.
		for len(fills) > 0 && len(batch) < b.depth {
			batch = append(batch, fills[0])
			fills = fills[1:]
		}
		for len(batch) < b.depth {
			o := g.next()
			batch = append(batch, pending{o.kind, o.key, o.valLen})
		}
		for _, p := range batch {
			key := b.names[p.key]
			switch p.kind {
			case opGet:
				cl.QueueGet(key, false)
			case opSet:
				cl.QueueSet(key, 0, 0, putPayload(buf, key, int(p.valLen)))
			case opDel:
				cl.QueueDelete(key)
			}
		}
		if interval == 0 {
			due = time.Now()
		} else if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		if interval > 0 {
			// How late the generator itself ran: past the due time, or past
			// the previous answer if that came later (a connection has one
			// batch in flight; waiting for the server is latency, not this).
			ready := due
			if free.After(ready) {
				ready = free
			}
			out.late.add(t0.Sub(ready))
		}
		rs, err := cl.Exchange()
		t1 := time.Now()
		free = t1
		if err != nil {
			out.err = err
			return
		}
		// The batch belongs to the slice it completed in; one that ends past
		// the deadline counts in the last.
		k := int(t1.Sub(start) / sliceDur)
		if k >= len(out.slices) {
			k = len(out.slices) - 1
		}
		out.slices[k].lat.add(t1.Sub(due))
		out.slices[k].ops += uint64(len(rs))
		if tr.enabled() {
			tr.record(spRequest, tr.id(), 0, t0, t1, 0)
		}
		for j, r := range rs {
			p := batch[j]
			if r.Err != "" {
				out.failed++
				continue
			}
			switch p.kind {
			case opGet:
				out.gets++
				switch {
				case !r.Hit:
					if b.fillOnMiss {
						fills = append(fills, pending{opSet, p.key, p.valLen})
					}
				case verify && !payloadOK(b.names[p.key], r.Value):
					out.hits++
					out.failed++
				default:
					out.hits++
				}
			case opSet:
				if !r.Hit {
					out.failed++
				}
			}
		}
		due = due.Add(interval)
	}
}

// nopBackend answers every request without doing anything: what is left is
// the cost of the server, the protocol, the sockets and the generator.
type nopBackend struct{ val []byte }

func (n nopBackend) Get(string) ([]byte, bool, error)               { return n.val, true, nil }
func (n nopBackend) Set(string, []byte) error                       { return nil }
func (n nopBackend) SetWithTTL(string, []byte, time.Duration) error { return nil }
func (n nopBackend) Delete(string) bool                             { return true }
func (n nopBackend) Len() int                                       { return 0 }

// selfCost runs the workload's own loop against a no-op backend and returns
// CPU microseconds per request.
func (b *serveBench) selfCost(seconds float64) (float64, error) {
	val := make([]byte, flagBytes+int(b.sizes.mean()))
	srv, err := server.New(server.Config{Backend: nopBackend{val}})
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	w, err := b.drive(srv.Addr(), seconds, nil, false)
	if serr := stopServer(srv, served); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	return ratio(us(w.host.cpu), float64(w.ops)), nil
}

func stopServer(srv *server.Server, served chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-served
}

func (b *serveBench) layers(w *window, m map[string]float64) {
	var batches, batchOps float64
	for _, s := range b.reg.Gather() {
		switch s.Name {
		case "server_batches_total":
			batches = s.Value
		case "server_batch_ops_total":
			batchOps = s.Value
		}
	}
	m["server.batch_ops_mean"] = ratio(batchOps, batches)
	m["server.self_us_per_op"] = b.self
	m["gen_late_p99_us"] = w.late.sorted().q(0.99)
}

func (b *serveBench) close() {
	if b.srv != nil {
		stopServer(b.srv, b.served) //nolint:errcheck // tearing down
		b.srv = nil
	}
	b.backend, b.st = nil, stack{}
}
