package harness

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"znscache/internal/cluster"
	"znscache/internal/fault"
	"znscache/internal/server"
	"znscache/internal/sim"
	"znscache/internal/stats"
	"znscache/internal/workload"
)

// Cluster tier benchmark and failure drill. Each "node" is a real serving
// stack — a scheme rig under a memcached server on a loopback listener — and
// the cluster.Router consistent-hashes across them exactly as cmd/cacheproxy
// does. The sweep measures how node count, replication factor, and workload
// skew move throughput, hit ratio, per-node balance, and tail latency; the
// drill kills one node mid-run with the fault injector and replays the
// acknowledged-write oracle cluster-wide.

// ClusterParams configures one cluster benchmark point.
type ClusterParams struct {
	Scheme Scheme
	// Nodes is the cluster size (default 3).
	Nodes int
	// Replication is the per-key replica count R (default 1).
	Replication int
	// ZipfTheta is the workload skew (default 0.99).
	ZipfTheta float64
	// Keys is the working-set size (default 2048).
	Keys int
	// Ops is how many client operations the driver issues (default 20000).
	Ops int
	// ValueBytes is the mean payload size (default 512; actual sizes vary
	// ±50% around it, seeded).
	ValueBytes int
	// GetRatio is the read fraction of the op mix (default 0.9); misses fill
	// read-through, so the steady-state mix is get-heavy like CacheBench bc.
	GetRatio float64
	// Seed drives the workload (default 1).
	Seed uint64
	// HotWindow/HotTopK/HotMinCount configure the router's hot-key detector;
	// HotWindow 0 disables hot-key read replication for the point.
	HotWindow, HotTopK, HotMinCount int
	// Env is the tracer, fault schedule and admission factory every node's
	// rig gets.
	Env Env
}

func (p *ClusterParams) fillDefaults() {
	if p.Nodes == 0 {
		p.Nodes = 3
	}
	if p.Replication == 0 {
		p.Replication = 1
	}
	if p.ZipfTheta == 0 {
		p.ZipfTheta = 0.99
	}
	if p.Keys == 0 {
		p.Keys = 2048
	}
	if p.Ops == 0 {
		p.Ops = 20000
	}
	if p.ValueBytes == 0 {
		p.ValueBytes = 512
	}
	if p.GetRatio == 0 {
		p.GetRatio = 0.9
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// ClusterResult is one benchmark point's measurements.
type ClusterResult struct {
	Nodes       int     `json:"nodes"`
	Replication int     `json:"replication"`
	ZipfTheta   float64 `json:"zipf_theta"`
	HotWindow   int     `json:"hot_window"`

	OpsPerSec float64       `json:"ops_per_sec"`
	HitRatio  float64       `json:"hit_ratio"`
	Ops       uint64        `json:"ops"`
	Gets      uint64        `json:"gets"`
	Sets      uint64        `json:"sets"`
	Hits      uint64        `json:"hits"`
	Misses    uint64        `json:"misses"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`

	// NodeGets is cmd_get per node, in sorted node-name order. Balance is
	// max(NodeGets)/mean(NodeGets): 1.0 is perfectly even; hot-key read
	// replication should pull a skewed workload's balance toward 1.
	NodeGets []uint64 `json:"node_gets"`
	Balance  float64  `json:"balance"`

	// Router counters for the point.
	HotReads     uint64 `json:"hot_reads"`
	ReplicaReads uint64 `json:"replica_reads"`
	Failovers    uint64 `json:"failovers"`
	BackendErrs  uint64 `json:"backend_errors"`
}

// clusterHW is the per-node profile cluster runs use: 1 MiB zones, 16 zones,
// so a 2048-key working set cycles regions without swamping the run.
func clusterHW() HWProfile {
	return HWProfile{Zones: 16, BlocksPerZone: 8, PagesPerBlock: 32, Channels: 4, DiesPerChan: 1}
}

// clusterNode is one running member: rig, server, and its address.
type clusterNode struct {
	name string
	rig  *Rig
	srv  *server.Server
}

// rigBackend adapts a rig's engine to the serving layer's Backend. The
// engine is single-writer, so a mutex serializes the server's connections;
// ShardNow exposes the rig's simulated clock for absolute-exptime
// resolution.
type rigBackend struct {
	mu  sync.Mutex
	rig *Rig
}

func (b *rigBackend) Get(key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rig.Engine.Get(key)
}

func (b *rigBackend) Set(key string, value []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rig.Engine.Set(key, value, 0)
}

func (b *rigBackend) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rig.Engine.SetTTL(key, value, 0, ttl)
}

func (b *rigBackend) Delete(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rig.Engine.Delete(key)
}

func (b *rigBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rig.Engine.Len()
}

func (b *rigBackend) ShardNow(string) time.Duration { return b.rig.Clock.Now() }

// startClusterNodes builds n scheme rigs in env and serves them on loopback
// listeners.
// Nodes are named node-00…; the returned stop func shuts every server down.
func startClusterNodes(env Env, scheme Scheme, n int, hw HWProfile, cacheZones int, regionBytes int64, faults func(i int) *fault.Config) ([]*clusterNode, func(), error) {
	nodes := make([]*clusterNode, 0, n)
	stop := func() {
		for _, cn := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			cn.srv.Shutdown(ctx) //nolint:errcheck
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		cfg := RigConfig{
			Scheme:      scheme,
			HW:          hw,
			CacheBytes:  int64(cacheZones) * hw.ZoneBytes(),
			RegionBytes: regionBytes,
			TrackValues: true,
		}
		if faults != nil {
			cfg.Faults = faults(i)
		}
		rig, err := env.build(cfg)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("harness: cluster node %d: %w", i, err)
		}
		srv, err := server.New(server.Config{Backend: &rigBackend{rig: rig}})
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("harness: cluster node %d server: %w", i, err)
		}
		go srv.Serve() //nolint:errcheck
		nodes = append(nodes, &clusterNode{name: fmt.Sprintf("node-%02d", i), rig: rig, srv: srv})
	}
	return nodes, stop, nil
}

func clusterNodeList(nodes []*clusterNode) []cluster.Node {
	out := make([]cluster.Node, len(nodes))
	for i, cn := range nodes {
		out[i] = cluster.Node{Name: cn.name, Addr: cn.srv.Addr()}
	}
	return out
}

// RunCluster executes one benchmark point: a seeded zipf read-through
// workload driven through a Router over real loopback nodes.
func RunCluster(p ClusterParams) (*ClusterResult, error) {
	p.fillDefaults()
	nodes, stop, err := startClusterNodes(p.Env, p.Scheme, p.Nodes, clusterHW(), 10, 64<<10, nil)
	if err != nil {
		return nil, err
	}
	defer stop()

	rt, err := cluster.New(cluster.Config{
		Nodes:       clusterNodeList(nodes),
		Replication: p.Replication,
		HotWindow:   p.HotWindow,
		HotTopK:     p.HotTopK,
		HotMinCount: p.HotMinCount,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	res := &ClusterResult{
		Nodes: p.Nodes, Replication: p.Replication,
		ZipfTheta: p.ZipfTheta, HotWindow: p.HotWindow,
	}
	zipf := workload.NewZipf(int64(p.Keys), p.ZipfTheta, p.Seed)
	rng := sim.NewRand(p.Seed ^ 0xc2b2ae3d27d4eb4f)
	hist := stats.NewHistogram()
	payload := make([]byte, p.ValueBytes*2)
	rng.Bytes(payload)
	valueFor := func(id int64) []byte {
		n := p.ValueBytes/2 + int(uint64(id*2654435761)%uint64(p.ValueBytes))
		return payload[:n]
	}
	keyName := func(id int64) string { return fmt.Sprintf("key-%08d", id) }

	t0 := time.Now()
	for i := 0; i < p.Ops; i++ {
		id := zipf.Next()
		key := keyName(id)
		op0 := time.Now()
		if rng.Float64() < p.GetRatio {
			res.Gets++
			_, hit, gerr := rt.Get(key)
			if gerr != nil {
				return nil, fmt.Errorf("harness: cluster get %s: %w", key, gerr)
			}
			if hit {
				res.Hits++
			} else {
				res.Misses++
				if serr := rt.Set(key, valueFor(id)); serr != nil {
					return nil, fmt.Errorf("harness: cluster fill %s: %w", key, serr)
				}
			}
		} else {
			res.Sets++
			if serr := rt.Set(key, valueFor(id)); serr != nil {
				return nil, fmt.Errorf("harness: cluster set %s: %w", key, serr)
			}
		}
		hist.Observe(time.Since(op0))
	}
	res.Elapsed = time.Since(t0)
	res.Ops = uint64(p.Ops)
	if res.Gets > 0 {
		res.HitRatio = float64(res.Hits) / float64(res.Gets)
	}
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
	}
	res.P50 = hist.Percentile(0.5)
	res.P99 = hist.Percentile(0.99)

	names := rt.Nodes()
	sort.Strings(names)
	var total, max uint64
	for _, name := range names {
		st, serr := rt.NodeStats(name)
		if serr != nil {
			return nil, fmt.Errorf("harness: cluster stats %s: %w", name, serr)
		}
		var gets uint64
		fmt.Sscanf(st["cmd_get"], "%d", &gets) //nolint:errcheck
		res.NodeGets = append(res.NodeGets, gets)
		total += gets
		if gets > max {
			max = gets
		}
	}
	if len(names) > 0 && total > 0 {
		mean := float64(total) / float64(len(names))
		res.Balance = float64(max) / mean
	}
	m := rt.MetricsSnapshot()
	res.HotReads, res.ReplicaReads = m.HotReads, m.ReplicaReads
	res.Failovers, res.BackendErrs = m.Failovers, m.BackendErrors
	return res, nil
}

// DefaultClusterSweep enumerates the benchmark grid: node count ×
// replication × zipf skew, ending in a matched pair (5 nodes, R=3, a
// concentrated 512-key working set, hot detector off vs on) so the report
// shows hot-key read replication flattening per-node imbalance — the only
// difference between the last two rows is the detector, and with R=3 it
// moves two thirds of the hot-key reads off each key's primary. Note the
// zipf generator clamps theta to (0,1), so skew beyond 0.99 must come from
// shrinking the key space, not raising theta.
func DefaultClusterSweep() []ClusterParams {
	hot := func(p ClusterParams) ClusterParams {
		p.HotWindow, p.HotTopK, p.HotMinCount = 1024, 8, 16
		return p
	}
	return []ClusterParams{
		{Nodes: 1, Replication: 1, ZipfTheta: 0.99},
		{Nodes: 3, Replication: 1, ZipfTheta: 0.6},
		{Nodes: 3, Replication: 1, ZipfTheta: 0.99},
		{Nodes: 3, Replication: 2, ZipfTheta: 0.99},
		{Nodes: 5, Replication: 3, ZipfTheta: 0.99, Keys: 512},
		hot(ClusterParams{Nodes: 5, Replication: 3, ZipfTheta: 0.99, Keys: 512}),
	}
}

// RunClusterSweep runs each point in order.
func RunClusterSweep(points []ClusterParams) ([]ClusterResult, error) {
	rows := make([]ClusterResult, 0, len(points))
	for _, p := range points {
		res, err := RunCluster(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *res)
	}
	return rows, nil
}

// ClusterDrillParams configures one kill-a-node drill.
type ClusterDrillParams struct {
	Scheme Scheme
	// Nodes is the cluster size (default 3).
	Nodes int
	// Replication is the replica count (default 2 — the interesting case:
	// one death should lose approximately nothing).
	Replication int
	// Seed drives the workload, the victim choice, and the crash point.
	Seed uint64
	// Keys is the working-set size (default 48).
	Keys int
	// WarmOps is how many writes land before the crash is armed (default 250).
	WarmOps int
	// MaxPostOps bounds the writes issued while waiting for the victim's
	// device to die (default 400).
	MaxPostOps int
}

func (p *ClusterDrillParams) fillDefaults() {
	if p.Nodes == 0 {
		p.Nodes = 3
	}
	if p.Replication == 0 {
		p.Replication = 2
	}
	if p.Keys == 0 {
		p.Keys = 48
	}
	if p.WarmOps == 0 {
		p.WarmOps = 250
	}
	if p.MaxPostOps == 0 {
		p.MaxPostOps = 400
	}
}

// ClusterDrillReport is the cluster-wide oracle's verdict.
type ClusterDrillReport struct {
	Nodes       int
	Replication int
	Seed        uint64
	Victim      string
	// Crashed reports whether the armed device crash fired before the
	// post-arm op budget ran out.
	Crashed bool
	// AckedKeys is how many distinct keys had at least one acknowledged
	// write; Hits+Lost partitions them after the kill.
	AckedKeys int
	Hits      int
	Lost      int
	// WrongData counts post-kill hits whose value matches nothing ever
	// written for the key — the hard failure.
	WrongData int
	// LostNotOnVictim counts lost keys whose pre-kill replica set did not
	// include the victim: losses the kill cannot explain.
	LostNotOnVictim int
	// Router counters accumulated across the run.
	ReplicaWriteErrors uint64
	Failovers          uint64
	BackendErrors      uint64
}

// Err folds the report into pass/fail: wrong data is always a bug; a drill
// whose crash never fired tested nothing; losses the kill cannot explain
// point at a replication bug.
func (r *ClusterDrillReport) Err() error {
	if r.WrongData > 0 {
		return fmt.Errorf("harness: cluster drill seed %d: %d hits returned wrong data", r.Seed, r.WrongData)
	}
	if !r.Crashed {
		return fmt.Errorf("harness: cluster drill seed %d: crash never fired", r.Seed)
	}
	if r.LostNotOnVictim > 0 {
		return fmt.Errorf("harness: cluster drill seed %d: %d keys lost without the victim in their replica set",
			r.Seed, r.LostNotOnVictim)
	}
	return nil
}

// RunClusterDrill writes through the router, kills one node's device
// mid-run via the fault injector, marks it down, and replays the
// acknowledged-write oracle over every key: a hit must return bytes that
// were actually written for that key (acked or in flight when the device
// died); an acked key may be lost only if the victim held a replica of it.
func RunClusterDrill(p ClusterDrillParams) (*ClusterDrillReport, error) {
	p.fillDefaults()
	hw := crashHW()
	faults := func(i int) *fault.Config {
		return &fault.Config{Seed: p.Seed + uint64(i)}
	}
	// Small regions so writes reach the device often enough for the armed
	// crash to fire: traffic splits N ways, and a region's worth of buffered
	// bytes is the granularity at which a node actually touches flash.
	nodes, stop, err := startClusterNodes(Env{}, p.Scheme, p.Nodes, hw, 6, 16<<10, faults)
	if err != nil {
		return nil, err
	}
	defer stop()

	rt, err := cluster.New(cluster.Config{
		Nodes:       clusterNodeList(nodes),
		Replication: p.Replication,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	rng := sim.NewRand(p.Seed ^ 0x9e3779b97f4a7c15)
	rep := &ClusterDrillReport{Nodes: p.Nodes, Replication: p.Replication, Seed: p.Seed}
	victim := nodes[rng.Intn(len(nodes))]
	rep.Victim = victim.name

	keyOf := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	value := func() []byte {
		b := make([]byte, 64+rng.Intn(2048))
		rng.Bytes(b)
		return b
	}
	// written holds every value ever sent for a key (the oracle's accept
	// set: a replica may legitimately serve a value whose ack failed on the
	// dying primary); acked marks keys with at least one acknowledged write.
	written := make(map[string][][]byte, p.Keys)
	acked := make(map[string]bool, p.Keys)
	writeOne := func() {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		written[k] = append(written[k], v)
		if err := rt.Set(k, v); err == nil {
			acked[k] = true
		}
	}

	// Phase 1: warm writes, everything healthy.
	for i := 0; i < p.WarmOps; i++ {
		writeOne()
	}
	// Record every key's replica set under the pre-kill topology.
	ownersPre := make(map[string][]string, len(written))
	for k := range written {
		ownersPre[k] = rt.Owners(k)
	}

	// Phase 2: arm the victim's device crash a seeded distance ahead and
	// write into it.
	w0 := victim.rig.Faults.Writes()
	span := int(w0 / 2)
	if span < 2 {
		span = 2
	}
	victim.rig.Faults.ArmCrash(w0 + 1 + uint64(rng.Intn(span)))
	for i := 0; i < p.MaxPostOps && !victim.rig.Faults.Crashed(); i++ {
		writeOne()
	}
	rep.Crashed = victim.rig.Faults.Crashed()

	// The node is dead: take it out of the topology, then kill its server.
	rt.MarkDown(victim.name)
	killCtx, cancel := context.WithCancel(context.Background())
	cancel()
	victim.srv.Shutdown(killCtx) //nolint:errcheck

	// Oracle replay over every key, in fixed order.
	keys := make([]string, 0, len(written))
	for k := range written {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rep.AckedKeys = len(acked)
	for _, k := range keys {
		v, hit, gerr := rt.Get(k)
		if gerr != nil {
			return nil, fmt.Errorf("harness: drill Get(%q): %w", k, gerr)
		}
		if !hit {
			if acked[k] {
				rep.Lost++
				if !containsName(ownersPre[k], victim.name) {
					rep.LostNotOnVictim++
				}
			}
			continue
		}
		if matchesAny(v, written[k]) {
			rep.Hits++
		} else {
			rep.WrongData++
		}
	}

	// The survivors must keep serving: a short smoke workload.
	for i := 0; i < 32; i++ {
		k := keyOf(rng.Intn(p.Keys))
		v := value()
		if err := rt.Set(k, v); err != nil {
			return nil, fmt.Errorf("harness: post-kill Set: %w", err)
		}
		got, hit, gerr := rt.Get(k)
		if gerr != nil {
			return nil, fmt.Errorf("harness: post-kill Get: %w", gerr)
		}
		if hit && !bytes.Equal(got, v) {
			rep.WrongData++
		}
	}

	m := rt.MetricsSnapshot()
	rep.ReplicaWriteErrors = m.ReplicaWriteErrors
	rep.Failovers = m.Failovers
	rep.BackendErrors = m.BackendErrors
	return rep, nil
}

func matchesAny(got []byte, vals [][]byte) bool {
	for _, v := range vals {
		if bytes.Equal(got, v) {
			return true
		}
	}
	return false
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
