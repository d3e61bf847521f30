package cluster

import (
	"fmt"
)

// Join adds node n to the ring and warms it: warmKeys (typically decoded
// from the overlapping owners' persistent snapshots via cache.SnapshotKeys)
// are re-resolved under the new ring, and every key n now replicates is
// copied from a pre-change owner. It returns how many keys moved. Warming
// copies values, not TTLs — the memcached protocol cannot read a remaining
// TTL back, so warmed entries are stored without one (a cache may always
// expire early; it must not expire late, and an unwarmed miss is just a
// miss).
func (rt *Router) Join(n Node, warmKeys []string) (int, error) {
	rt.mu.Lock()
	if _, exists := rt.members[n.Name]; exists {
		rt.mu.Unlock()
		return 0, fmt.Errorf("cluster: node %q already joined", n.Name)
	}
	oldRing := rt.ring
	newRing, err := NewRing(append(append([]string(nil), oldRing.Nodes()...), n.Name), rt.cfg.VirtualNodes)
	if err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	mb := &member{node: n, pool: newPool(n.Addr, rt.cfg.PoolIdle, rt.cfg.Timeout)}
	rt.members[n.Name] = mb
	rt.ring = newRing
	rt.mu.Unlock()
	rt.m.rebalances.Inc()

	moved := 0
	var scratch []string
	for _, key := range warmKeys {
		newOwners := newRing.OwnersInto(key, rt.r, scratch[:0])
		if !containsStr(newOwners, n.Name) {
			continue
		}
		scratch = newOwners
		// Read from a pre-change owner: the data's home before the join.
		v, hit, err := rt.getFailover(key, rt.membersFor(oldRing.OwnersInto(key, rt.r, nil)), 0, mb)
		if err != nil || !hit {
			continue // nothing to move (or the source is gone): a cold miss later
		}
		if rt.setOn(mb, key, v, 0) == nil {
			moved++
			rt.m.ringMoves.Inc()
		}
	}
	return moved, nil
}

// MarkDown removes a crashed node: no warming (the node is gone), the ring
// shrinks, and surviving replicas take over. Keys replicated only on the
// dead node surface as misses — the lost-key accounting the failure drill
// asserts. Unknown names are a no-op (a drill may mark a node down twice).
func (rt *Router) MarkDown(name string) {
	rt.mu.Lock()
	mb := rt.members[name]
	if mb == nil {
		rt.mu.Unlock()
		return
	}
	mb.down.Store(true)
	delete(rt.members, name)
	remaining := make([]string, 0, len(rt.ring.Nodes())-1)
	for _, n := range rt.ring.Nodes() {
		if n != name {
			remaining = append(remaining, n)
		}
	}
	if len(remaining) > 0 {
		if newRing, err := NewRing(remaining, rt.cfg.VirtualNodes); err == nil {
			rt.ring = newRing
		}
	}
	rt.mu.Unlock()
	rt.m.rebalances.Inc()
	rt.m.nodesDown.Inc()
	mb.pool.close()
}

// membersFor resolves names to live member handles under the current
// membership (missing names — already-removed nodes — are skipped).
func (rt *Router) membersFor(names []string) []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ms := make([]*member, 0, len(names))
	for _, n := range names {
		if mb := rt.members[n]; mb != nil {
			ms = append(ms, mb)
		}
	}
	return ms
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
