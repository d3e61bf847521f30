// Package cluster holds a consistent-hash ring that no serving path routes
// with. It stays only because the repository benchmark's probe.ring_owners_ns
// prices Ring.OwnersInto, and it goes together with that probe.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node vnode count when NewRing is given
// zero: enough points that per-node key balance lands within a few percent
// of even, while a 16-node ring still builds in microseconds.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring: each node contributes vnodes
// points (finalized FNV-1a of "name#i") on a 64-bit circle, and a key is owned by the
// first points clockwise from its hash that belong to distinct nodes. Nodes
// are sorted before placement, so the same node set always builds the same
// ring regardless of insertion order — the determinism the unit tests pin.
// Lookups are lock-free; topology changes build a fresh ring.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring over the given node names.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	r := &Ring{
		nodes:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	var buf []byte
	for ni, name := range sorted {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], name...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, ringPoint{hash: fnv64(buf), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare) break by node index so the sort —
		// and therefore ownership — is still a pure function of the node set.
		return a.node < b.node
	})
	return r, nil
}

// OwnersInto appends key's replica set — the first n distinct nodes
// clockwise from the key's hash, primary first — to dst and returns it.
// Fewer than n nodes in the ring yields all of them.
func (r *Ring) OwnersInto(key string, n int, dst []string) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	base := len(dst)
	i := r.firstPoint(key)
	for range r.points {
		name := r.nodes[r.points[i].node]
		dup := false
		for _, got := range dst[base:] {
			if got == name {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, name)
			if len(dst)-base == n {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return dst
}

// firstPoint returns the index of the first ring point at or clockwise of
// key's hash.
func (r *Ring) firstPoint(key string) int {
	h := fnv64String(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 finalizes a raw FNV hash before it is used as a ring position.
// FNV-1a avalanches well in its low-order bits but barely at all in the high
// ones, and ring placement orders points by the *full* 64-bit value — so
// sequential keys ("key-000001", "key-000002", …) land adjacent on the circle
// and per-node ownership skews badly. The splitmix64 finalizer spreads every
// input bit across the whole word.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func fnv64(p []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return mix64(h)
}

func fnv64String(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}
