package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/server"
)

var (
	errPoolClosed = errors.New("cluster: connection pool closed")
	// errNoReplicas is returned when every replica of a key is down or
	// unreachable — the cluster-wide analogue of a device error.
	errNoReplicas = errors.New("cluster: no live replica")
)

// relativeExpCutoff mirrors memcached's 30-day rule: TTLs forwarded to
// backends must stay in the relative range, so longer ones clamp here (a
// cache may always expire early).
const relativeExpCutoff = 30 * 24 * 3600

// Node names one cluster member and its memcached address.
type Node struct {
	Name string
	Addr string
}

// Config parameterizes a Router.
type Config struct {
	// Nodes is the initial membership. At least one required.
	Nodes []Node
	// Replication is the replica count R per key (default 1): writes go to
	// the first R distinct ring owners, reads fail over across them. Values
	// above the node count are served by every node.
	Replication int
	// VirtualNodes is the per-node vnode count (default DefaultVirtualNodes).
	VirtualNodes int
	// PoolIdle caps idle pooled connections per backend (default 4).
	PoolIdle int
	// Timeout bounds each backend exchange (default 5s).
	Timeout time.Duration
	// HotWindow is the hot-key detector's window in observed gets (0
	// disables hot-key read replication).
	HotWindow int
	// HotTopK is how many keys each window may promote (default 8).
	HotTopK int
	// HotMinCount is the minimum per-window count for promotion (default 2).
	HotMinCount int
}

// member is one live backend: its node identity, connection pool, and a down
// flag flipped by MarkDown so in-flight operations stop routing to it.
type member struct {
	node Node
	pool *pool
	down atomic.Bool
}

// Router consistent-hashes keys across the cluster's backends. It implements
// the serving layer's Backend (plus MultiGetter), so a Server fronting a
// Router is the cacheproxy: same protocol in, scattered protocol out.
//
// Writes go to all R owners; the ack tracks the primary (first owner), with
// replica failures counted but not surfaced — the acknowledged-write oracle
// in the harness drills exactly this asymmetry. Reads try the primary first
// and fail over across replicas on transport errors; keys promoted by the
// hot-key detector spread reads over the whole replica set round-robin.
type Router struct {
	cfg Config
	r   int
	hot *HotKeys
	rr  atomic.Uint64 // round-robin cursor for hot-key replica choice

	mu      sync.RWMutex // guards ring + members (topology)
	ring    *Ring
	members map[string]*member

	m rmetrics
}

// New builds a Router over the configured nodes.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: Config.Nodes is required")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.HotTopK <= 0 {
		cfg.HotTopK = 8
	}
	names := make([]string, 0, len(cfg.Nodes))
	members := make(map[string]*member, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if _, dup := members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n.Name)
		}
		names = append(names, n.Name)
		members[n.Name] = &member{node: n, pool: newPool(n.Addr, cfg.PoolIdle, cfg.Timeout)}
	}
	ring, err := NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	return &Router{
		cfg:     cfg,
		r:       cfg.Replication,
		hot:     NewHotKeys(cfg.HotWindow, cfg.HotTopK, cfg.HotMinCount),
		ring:    ring,
		members: members,
	}, nil
}

// Close releases every backend connection pool.
func (rt *Router) Close() {
	rt.mu.Lock()
	ms := rt.members
	rt.members = map[string]*member{}
	rt.mu.Unlock()
	for _, mb := range ms {
		mb.pool.close()
	}
}

// HotKeys exposes the detector (for tests and the bench harness).
func (rt *Router) HotKeys() *HotKeys { return rt.hot }

// Nodes returns the current member names, sorted.
func (rt *Router) Nodes() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.ring.Nodes()...)
}

// Owners returns key's current replica set as node names, primary first —
// the topology view the harness's drills record before killing a node.
func (rt *Router) Owners(key string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.OwnersInto(key, rt.r, nil)
}

// replicaSet resolves key's replica members under the current topology.
func (rt *Router) replicaSet(key string) []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	names := rt.ring.OwnersInto(key, rt.r, nil)
	ms := make([]*member, 0, len(names))
	for _, n := range names {
		if mb := rt.members[n]; mb != nil {
			ms = append(ms, mb)
		}
	}
	return ms
}

// Get serves a read: primary first (any replica, rotating, for hot keys),
// failing over across the replica set on backend errors. A miss from a live
// replica is authoritative — replicated writes put the value everywhere, so
// absence on one live owner means absence.
func (rt *Router) Get(key string) ([]byte, bool, error) {
	rt.m.gets.Inc()
	rt.hot.Observe(key)
	ms := rt.replicaSet(key)
	start := 0
	if len(ms) > 1 && rt.hot.IsHot(key) {
		start = int(rt.rr.Add(1) % uint64(len(ms)))
		rt.m.hotReads.Inc()
	}
	return rt.getFailover(key, ms, start, nil)
}

// getFailover walks the replica set from start, skipping down members and
// avoid, returning the first live answer.
func (rt *Router) getFailover(key string, ms []*member, start int, avoid *member) ([]byte, bool, error) {
	var lastErr error
	tried := 0
	for i := 0; i < len(ms); i++ {
		mb := ms[(start+i)%len(ms)]
		if mb == avoid || mb.down.Load() {
			continue
		}
		if tried > 0 {
			rt.m.failovers.Inc()
		}
		tried++
		v, hit, err := rt.getFrom(mb, key)
		if err != nil {
			rt.m.backendErrors.Inc()
			lastErr = err
			continue
		}
		if (start+i)%len(ms) != 0 {
			rt.m.replicaReads.Inc()
		}
		return v, hit, nil
	}
	if lastErr == nil {
		lastErr = errNoReplicas
	}
	return nil, false, lastErr
}

func (rt *Router) getFrom(mb *member, key string) ([]byte, bool, error) {
	cl, err := mb.pool.get()
	if err != nil {
		return nil, false, err
	}
	r, err := cl.Get(key)
	if err != nil {
		mb.pool.drop(cl)
		return nil, false, err
	}
	// r.Value aliases the client's value arena, which the client's next
	// checkout reuses: copy it before the client goes back to the pool.
	val := bytes.Clone(r.Value)
	mb.pool.put(cl)
	if r.Err != "" {
		return nil, false, fmt.Errorf("cluster: %s: %s", mb.node.Name, r.Err)
	}
	return val, r.Hit, nil
}

// GetMulti scatter-gathers one multiget per backend: keys group by their
// routed member (primary, or a rotating replica for hot keys), each group is
// one pipelined exchange, and unresolved keys — transport failures or the
// truncated-response error marking — fail over to the key's other replicas
// individually. Implements server.MultiGetter.
func (rt *Router) GetMulti(keys []string, vals [][]byte, hits []bool, errs []error) {
	rt.m.gets.Add(uint64(len(keys)))
	type group struct {
		mb  *member
		idx []int
	}
	groups := make(map[*member]*group, 4)
	sets := make([][]*member, len(keys))
	for i, key := range keys {
		rt.hot.Observe(key)
		ms := rt.replicaSet(key)
		sets[i] = ms
		start := 0
		if len(ms) > 1 && rt.hot.IsHot(key) {
			start = int(rt.rr.Add(1) % uint64(len(ms)))
			rt.m.hotReads.Inc()
		}
		var mb *member
		for j := 0; j < len(ms); j++ {
			cand := ms[(start+j)%len(ms)]
			if !cand.down.Load() {
				mb = cand
				if (start+j)%len(ms) != 0 {
					rt.m.replicaReads.Inc()
				}
				break
			}
		}
		if mb == nil {
			vals[i], hits[i], errs[i] = nil, false, errNoReplicas
			continue
		}
		g := groups[mb]
		if g == nil {
			g = &group{mb: mb}
			groups[mb] = g
		}
		g.idx = append(g.idx, i)
	}
	for _, g := range groups {
		rt.execGroup(g.mb, g.idx, keys, vals, hits, errs, sets)
	}
}

// execGroup runs one member's multiget and scatters the results; failed or
// unresolved keys retry on their remaining replicas.
func (rt *Router) execGroup(mb *member, idx []int, keys []string, vals [][]byte, hits []bool, errs []error, sets [][]*member) {
	gk := make([]string, len(idx))
	for j, i := range idx {
		gk[j] = keys[i]
	}
	cl, err := mb.pool.get()
	var rs []server.Resp
	if err == nil {
		cl.QueueGetMulti(gk)
		if rs, err = cl.Exchange(); err != nil {
			mb.pool.drop(cl)
		}
	}
	if err != nil {
		rt.m.backendErrors.Inc()
		for _, i := range idx {
			vals[i], hits[i], errs[i] = rt.getFailover(keys[i], sets[i], 0, mb)
		}
		return
	}
	// The responses and their values live in the client's reused buffers,
	// which the client's next checkout overwrites: scatter copies of them
	// before the client goes back to the pool.
	var unresolved []int
	for j, i := range idx {
		if r := rs[j]; r.Err != "" {
			unresolved = append(unresolved, i)
		} else {
			vals[i], hits[i], errs[i] = bytes.Clone(r.Value), r.Hit, nil
		}
	}
	mb.pool.put(cl)
	for _, i := range unresolved {
		// Unresolved under the truncated response: this key may or may not
		// exist on mb — ask another replica rather than report a fabricated
		// miss.
		rt.m.backendErrors.Inc()
		vals[i], hits[i], errs[i] = rt.getFailover(keys[i], sets[i], 0, mb)
	}
}

// Set replicates the write to all R owners. The ack is the primary's.
func (rt *Router) Set(key string, value []byte) error {
	rt.m.sets.Inc()
	return rt.write(key, value, 0)
}

// SetWithTTL replicates a TTL'd write. The TTL forwards as a relative
// exptime (clamped to memcached's 30-day relative range — a cache may
// expire early), measured on each backend's own clock.
func (rt *Router) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	rt.m.sets.Inc()
	return rt.write(key, value, ttl)
}

func (rt *Router) write(key string, value []byte, ttl time.Duration) error {
	ms := rt.replicaSet(key)
	if len(ms) == 0 {
		return errNoReplicas
	}
	exptime := exptimeFor(ttl)
	var primaryErr error
	for i, mb := range ms {
		var err error
		if mb.down.Load() {
			err = fmt.Errorf("cluster: %s is down", mb.node.Name)
		} else {
			err = rt.setOn(mb, key, value, exptime)
			if err != nil {
				rt.m.backendErrors.Inc()
			}
		}
		if err != nil {
			if i == 0 {
				primaryErr = err
			} else {
				rt.m.replicaWriteErrors.Inc()
			}
		}
	}
	return primaryErr
}

func (rt *Router) setOn(mb *member, key string, value []byte, exptime int64) error {
	cl, err := mb.pool.get()
	if err != nil {
		return err
	}
	r, err := cl.Set(key, 0, exptime, value)
	if err != nil {
		mb.pool.drop(cl)
		return err
	}
	mb.pool.put(cl)
	if r.Err != "" {
		return fmt.Errorf("cluster: %s: %s", mb.node.Name, r.Err)
	}
	return nil
}

// exptimeFor renders a TTL as a memcached relative exptime: whole seconds,
// rounded up so sub-second TTLs don't become "store forever", clamped to the
// 30-day relative range.
func exptimeFor(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	secs := int64((ttl + time.Second - 1) / time.Second)
	if secs > relativeExpCutoff {
		secs = relativeExpCutoff
	}
	return secs
}

// Delete removes key from every replica; found if any replica had it.
func (rt *Router) Delete(key string) bool {
	rt.m.deletes.Inc()
	found := false
	for _, mb := range rt.replicaSet(key) {
		if mb.down.Load() {
			continue
		}
		cl, err := mb.pool.get()
		if err != nil {
			rt.m.backendErrors.Inc()
			continue
		}
		r, err := cl.Delete(key)
		if err != nil {
			mb.pool.drop(cl)
			rt.m.backendErrors.Inc()
			continue
		}
		mb.pool.put(cl)
		if r.Hit {
			found = true
		}
	}
	return found
}

// Len sums curr_items across live members. Replicated keys count once per
// replica — it is a capacity/balance signal, not a distinct-key count.
func (rt *Router) Len() int {
	rt.mu.RLock()
	ms := make([]*member, 0, len(rt.members))
	for _, mb := range rt.members {
		ms = append(ms, mb)
	}
	rt.mu.RUnlock()
	total := 0
	for _, mb := range ms {
		if mb.down.Load() {
			continue
		}
		if st, err := rt.statsOf(mb); err == nil {
			if n, aerr := strconv.Atoi(st["curr_items"]); aerr == nil {
				total += n
			}
		}
	}
	return total
}

// NodeStats fetches one member's stats map (for the bench harness's
// per-node balance accounting).
func (rt *Router) NodeStats(name string) (map[string]string, error) {
	rt.mu.RLock()
	mb := rt.members[name]
	rt.mu.RUnlock()
	if mb == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	return rt.statsOf(mb)
}

func (rt *Router) statsOf(mb *member) (map[string]string, error) {
	cl, err := mb.pool.get()
	if err != nil {
		rt.m.backendErrors.Inc()
		return nil, err
	}
	st, err := cl.Stats()
	if err != nil {
		mb.pool.drop(cl)
		rt.m.backendErrors.Inc()
		return nil, err
	}
	mb.pool.put(cl)
	return st, nil
}
