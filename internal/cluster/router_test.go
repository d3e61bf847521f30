package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"znscache/internal/server"
)

// memBackend is a concurrent map backend for the node servers under test.
type memBackend struct {
	mu      sync.Mutex
	m       map[string][]byte
	lastTTL time.Duration
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]byte)} }

func (b *memBackend) Get(key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

func (b *memBackend) Set(key string, value []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), value...)
	return nil
}

func (b *memBackend) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), value...)
	b.lastTTL = ttl
	return nil
}

func (b *memBackend) Delete(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[key]
	delete(b.m, key)
	return ok
}

func (b *memBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *memBackend) has(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[key]
	return ok
}

// node under test: a real server over a memBackend.
type testNode struct {
	node Node
	srv  *server.Server
	be   *memBackend
}

func startNodes(t *testing.T, names ...string) map[string]*testNode {
	t.Helper()
	nodes := make(map[string]*testNode, len(names))
	for _, name := range names {
		be := newMemBackend()
		srv, err := server.New(server.Config{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck
		n := &testNode{node: Node{Name: name, Addr: srv.Addr()}, srv: srv, be: be}
		nodes[name] = n
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck
		})
	}
	return nodes
}

func nodeList(nodes map[string]*testNode, names ...string) []Node {
	out := make([]Node, 0, len(names))
	for _, n := range names {
		out = append(out, nodes[n].node)
	}
	return out
}

// TestReplicatedWritesLandOnOwners: every acked write is present on exactly
// the R ring owners, and on no other node.
func TestReplicatedWritesLandOnOwners(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0", "n1", "n2"), Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(200)
	for _, k := range keys {
		if err := rt.Set(k, []byte("v-"+k)); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
	}
	for _, k := range keys {
		owners := rt.ring.OwnersInto(k, 2, nil)
		for name, n := range nodes {
			want := containsStr(owners, name)
			if got := n.be.has(k); got != want {
				t.Fatalf("key %s on node %s = %v, want %v (owners %v)", k, name, got, want, owners)
			}
		}
	}
}

// TestReadFailoverAfterNodeDeath: with R=2, killing one node and marking it
// down leaves every key readable from its surviving replica — correct value,
// never wrong data.
func TestReadFailoverAfterNodeDeath(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0", "n1", "n2"), Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(150)
	for _, k := range keys {
		if err := rt.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill n1 hard (force-close, no drain) and tell the router.
	victim := "n1"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nodes[victim].srv.Shutdown(ctx) //nolint:errcheck
	rt.MarkDown(victim)

	for _, k := range keys {
		v, hit, gerr := rt.Get(k)
		if gerr != nil {
			t.Fatalf("Get(%s) after kill: %v", k, gerr)
		}
		if !hit {
			t.Fatalf("Get(%s) missed: R=2 must leave a surviving replica", k)
		}
		if !bytes.Equal(v, []byte("v-"+k)) {
			t.Fatalf("Get(%s) = %q, want %q — wrong data after failover", k, v, "v-"+k)
		}
	}
	if rt.MetricsSnapshot().NodesDown != 1 {
		t.Fatalf("nodesDown = %d, want 1", rt.MetricsSnapshot().NodesDown)
	}
}

// TestJoinWarmsNewOwner: a joining node receives the keys it now owns,
// copied from the pre-join owners, and serves them immediately.
func TestJoinWarmsNewOwner(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0", "n1"), Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(300)
	for _, k := range keys {
		if err := rt.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	moved, err := rt.Join(nodes["n2"].node, keys)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("join moved no keys — warming did nothing")
	}
	captured := 0
	for _, k := range keys {
		if rt.ring.OwnersInto(k, 1, nil)[0] != "n2" {
			continue
		}
		captured++
		if !nodes["n2"].be.has(k) {
			t.Fatalf("key %s now owned by n2 but not warmed onto it", k)
		}
		v, hit, gerr := rt.Get(k)
		if gerr != nil || !hit || !bytes.Equal(v, []byte("v-"+k)) {
			t.Fatalf("Get(%s) after join = (%q, %v, %v)", k, v, hit, gerr)
		}
	}
	if captured == 0 {
		t.Fatal("new node captured no keys — ring did not rebalance")
	}
	if moved != captured {
		t.Fatalf("moved %d keys but new node owns %d", moved, captured)
	}
}

// TestGetMultiScatterGather: a multiget spanning all nodes resolves every
// key — hits with the right values, misses as plain misses.
func TestGetMultiScatterGather(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0", "n1", "n2"), Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	present := testKeys(60)
	for _, k := range present {
		if err := rt.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := append(append([]string(nil), present...), "missing-a", "missing-b")
	vals := make([][]byte, len(keys))
	hits := make([]bool, len(keys))
	errs := make([]error, len(keys))
	rt.GetMulti(keys, vals, hits, errs)
	for i, k := range keys {
		if errs[i] != nil {
			t.Fatalf("GetMulti %s: %v", k, errs[i])
		}
		if i < len(present) {
			if !hits[i] || !bytes.Equal(vals[i], []byte("v-"+k)) {
				t.Fatalf("GetMulti %s = (%q, %v), want hit", k, vals[i], hits[i])
			}
		} else if hits[i] {
			t.Fatalf("GetMulti %s hit, want miss", k)
		}
	}
}

// TestPooledClientResultsOutliveCheckin: goroutines share one pooled
// connection to a node, so each checkout's Exchange reuses the buffers the
// previous holder's responses and values live in. Every value the router
// returns must be its own copy, taken before the client went back to the
// pool: under -race a late read is a data race, and without it a value
// overwritten by another goroutine's exchange fails the comparison.
func TestPooledClientResultsOutliveCheckin(t *testing.T) {
	nodes := startNodes(t, "n0")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0"), PoolIdle: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(16)
	for _, k := range keys {
		if err := rt.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([][]byte, len(keys))
			hits := make([]bool, len(keys))
			errs := make([]error, len(keys))
			for i := 0; i < 200; i++ {
				rt.GetMulti(keys, vals, hits, errs)
				k := keys[(g+i)%len(keys)]
				v, hit, err := rt.Get(k)
				if err != nil || !hit || string(v) != "v-"+k {
					t.Errorf("Get(%s) = (%q, %v, %v)", k, v, hit, err)
					return
				}
				for j, k := range keys {
					if errs[j] != nil || !hits[j] || string(vals[j]) != "v-"+k {
						t.Errorf("GetMulti %s = (%q, %v, %v)", k, vals[j], hits[j], errs[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHotKeyReadsSpreadOverReplicas: once the detector promotes a key, its
// reads rotate across the whole replica set instead of hammering the primary.
func TestHotKeyReadsSpreadOverReplicas(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{
		Nodes: nodeList(nodes, "n0", "n1", "n2"), Replication: 3,
		HotWindow: 100, HotTopK: 2, HotMinCount: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if err := rt.Set("celebrity", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, hit, gerr := rt.Get("celebrity"); gerr != nil || !hit {
			t.Fatalf("hot read %d = (%v, %v)", i, hit, gerr)
		}
	}
	m := rt.MetricsSnapshot()
	if m.HotReads == 0 {
		t.Fatal("hot-key reads never engaged")
	}
	if m.ReplicaReads == 0 {
		t.Fatal("hot reads never left the primary")
	}
}

// TestWriteTTLForwarded: a TTL'd write reaches the backends with (roughly)
// the TTL intact, clamped to the relative range.
func TestWriteTTLForwarded(t *testing.T) {
	nodes := startNodes(t, "n0")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0"), Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if err := rt.SetWithTTL("k", []byte("v"), 90*time.Second); err != nil {
		t.Fatal(err)
	}
	nodes["n0"].be.mu.Lock()
	ttl := nodes["n0"].be.lastTTL
	nodes["n0"].be.mu.Unlock()
	if ttl != 90*time.Second {
		t.Fatalf("backend TTL = %v, want 90s", ttl)
	}
	if got := exptimeFor(400 * 24 * time.Hour); got != relativeExpCutoff {
		t.Fatalf("exptimeFor(400d) = %d, want clamp to %d", got, relativeExpCutoff)
	}
	if got := exptimeFor(300 * time.Millisecond); got != 1 {
		t.Fatalf("exptimeFor(300ms) = %d, want round-up to 1", got)
	}
}

// TestDeleteRemovesAllReplicas: a routed delete clears every replica.
func TestDeleteRemovesAllReplicas(t *testing.T) {
	nodes := startNodes(t, "n0", "n1", "n2")
	rt, err := New(Config{Nodes: nodeList(nodes, "n0", "n1", "n2"), Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for _, k := range testKeys(50) {
		if err := rt.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if !rt.Delete(k) {
			t.Fatalf("Delete(%s) reported not-found", k)
		}
		for name, n := range nodes {
			if n.be.has(k) {
				t.Fatalf("key %s survived delete on %s", k, name)
			}
		}
		if _, hit, _ := rt.Get(k); hit {
			t.Fatalf("key %s readable after delete", k)
		}
	}
}

func BenchmarkRingOwners(b *testing.B) {
	r, err := NewRing([]string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var dst []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.OwnersInto(fmt.Sprintf("key-%d", i&1023), 3, dst[:0])
	}
	_ = dst
}
