package znscache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/sim"
)

func TestOpenShardedValidation(t *testing.T) {
	if _, err := OpenSharded(ShardedConfig{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := OpenSharded(ShardedConfig{Config: Config{Zones: 2}, Shards: 8}); err == nil {
		t.Fatal("more shards than zones accepted")
	}
}

func TestOpenShardedBasic(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Zones: 24, TrackValues: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	const keys = 500
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user:%04d", i)
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user:%04d", i)
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != k {
			t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	if !c.Delete("user:0000") || c.Contains("user:0000") {
		t.Fatal("delete through the sharded facade failed")
	}
	st := c.Stats()
	if st.Sets != keys || st.Hits != keys {
		t.Fatalf("merged stats Sets=%d Hits=%d, want %d each", st.Sets, st.Hits, keys)
	}
	if st.WriteAmplification < 1 {
		t.Fatalf("WA = %v < 1", st.WriteAmplification)
	}
	if c.SimulatedTime() <= 0 {
		t.Fatal("simulated time did not advance")
	}
}

func TestOpenShardedTTLThroughFacade(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{Config: Config{Zones: 8}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetWithTTL("ephemeral", nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("ephemeral") {
		t.Fatal("item absent before TTL")
	}
	// Advance every shard clock past the TTL (the key's shard owns the
	// deadline, but advancing all is simplest and exercises independence).
	for i := 0; i < c.NumShards(); i++ {
		c.Rig(i).Clock.Advance(5 * time.Second)
	}
	if c.Contains("ephemeral") {
		t.Fatal("Contains sees a TTL-expired item through the sharded facade")
	}
	if _, ok, _ := c.Get("ephemeral"); ok {
		t.Fatal("Get sees a TTL-expired item")
	}
}

// TestShardedDeleteContains pins the facade-level semantics of Delete and
// Contains on the sharded cache: present, absent, re-set, and deleted keys,
// with keys spread over every shard so the per-shard routing is exercised,
// not just one engine.
func TestShardedDeleteContains(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Zones: 16, TrackValues: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Pick one key per shard so every engine sees each path.
	keys := make([]string, c.NumShards())
	filled := 0
	for i := 0; filled < len(keys); i++ {
		k := fmt.Sprintf("dc:%04d", i)
		if keys[c.ShardFor(k)] == "" {
			keys[c.ShardFor(k)] = k
			filled++
		}
	}
	for _, k := range keys {
		if c.Contains(k) {
			t.Fatalf("Contains(%q) true before Set", k)
		}
		if c.Delete(k) {
			t.Fatalf("Delete(%q) true before Set", k)
		}
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(k) {
			t.Fatalf("Contains(%q) false after Set", k)
		}
		if !c.Delete(k) {
			t.Fatalf("Delete(%q) false for a present key", k)
		}
		if c.Contains(k) {
			t.Fatalf("Contains(%q) true after Delete", k)
		}
		if c.Delete(k) {
			t.Fatalf("second Delete(%q) returned true", k)
		}
		// A re-set key is fully alive again.
		if err := c.Set(k, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(k) {
			t.Fatalf("Contains(%q) false after re-Set", k)
		}
	}
	if st := c.Stats(); st.Deletes == 0 {
		t.Fatal("merged stats recorded no deletes")
	}
}

// TestShardedContainsTTLExpiry covers the TTL paths of Contains and Delete
// through the sharded facade, advancing only the owning shard's simulated
// clock: expiry is a per-shard-clock fact, and the other shards' items must
// be unaffected.
func TestShardedContainsTTLExpiry(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{Config: Config{Zones: 16}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	const victim = "ttl:victim"
	const bystander = "ttl:bystander-on-another-shard"
	if c.ShardFor(victim) == c.ShardFor(bystander) {
		t.Fatalf("test keys landed on the same shard %d; pick different keys", c.ShardFor(victim))
	}
	if err := c.SetWithTTL(victim, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWithTTL(bystander, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(victim) || !c.Contains(bystander) {
		t.Fatal("items absent before TTL")
	}

	// Advance only the victim's shard clock past the TTL.
	c.Rig(c.ShardFor(victim)).Clock.Advance(5 * time.Second)
	if c.Contains(victim) {
		t.Fatal("Contains sees a TTL-expired item")
	}
	if !c.Contains(bystander) {
		t.Fatal("expiry on one shard clock leaked into another shard")
	}
	// Contains lazily removed the expired entry, so Delete now misses.
	if c.Delete(victim) {
		t.Fatal("Delete found a key Contains already expired")
	}
	st := c.Stats()
	if want := c.Len(); want != 1 {
		t.Fatalf("Len = %d after expiry, want 1", want)
	}
	_ = st
}

// TestShardedCloseReopen is the warm-roll contract: Close snapshots every
// shard, Reopen rebuilds the engines over the same simulated devices, and
// the reopened cache serves the pre-shutdown contents.
func TestShardedCloseReopen(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Zones: 8, TrackValues: true},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("persist:%03d", i)
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	before := c.Len()

	if _, err := c.Reopen(); err == nil {
		t.Fatal("Reopen succeeded on an open cache")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := len(c.Snapshots()); got != 2 {
		t.Fatalf("Snapshots count = %d, want 2", got)
	}
	if err := c.Set("late", []byte("x")); err != ErrClosed {
		t.Fatalf("Set after Close = %v, want ErrClosed", err)
	}
	errs := make([]error, 2)
	c.GetMulti([]string{"persist:000", "late"}, make([][]byte, 2), make([]bool, 2), errs)
	if errs[0] != ErrClosed || errs[1] != ErrClosed {
		t.Fatalf("GetMulti after Close = %v, want ErrClosed for every key", errs)
	}

	r, err := c.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != before {
		t.Fatalf("reopened Len = %d, want %d", got, before)
	}
	hits := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("persist:%03d", i)
		v, ok, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
			if string(v) != k {
				t.Fatalf("reopened Get(%q) = %q", k, v)
			}
		}
	}
	// Sealed regions survive; only the open region's DRAM buffer may drop.
	if hits < keys/2 {
		t.Fatalf("only %d/%d keys survived the warm roll", hits, keys)
	}
	// The reopened cache keeps serving writes.
	if err := r.Set("after-roll", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get("after-roll"); !ok {
		t.Fatal("reopened cache dropped a fresh write")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	t.Run("engines keep their configuration", testReopenKeepsConfig)
}

// testReopenKeepsConfig reopens a cache closed empty, which puts it in the
// state of a freshly opened twin: the same operations must then give the
// same per-shard stats. They do only if Reopen rebuilds each engine as Open
// built it, down to the in-flight flush bound (sets larger than half a
// region roll one region each, faster than the device absorbs them), the
// eviction order (under LRU, gets of old keys would move their regions) and
// dynamic-random's device byte counter.
func testReopenKeepsConfig(t *testing.T) {
	cfg := ShardedConfig{
		Config: Config{
			Zones:         16,
			Admission:     cache.DynamicRandomFactory{BudgetBytesPerSec: 256 << 20},
			AdmissionSeed: 7,
		},
		Shards: 2,
	}
	closed, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := closed.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ShardedCache{reopened, twin} {
		for i := 0; i < 1000; i++ {
			if err := c.SetSized(fmt.Sprintf("big:%04d", i), 130<<10); err != nil {
				t.Fatal(err)
			}
			// Once the shards' ~800 regions fill, this reads keys in
			// regions near eviction.
			if i >= 700 {
				c.Get(fmt.Sprintf("big:%04d", i-700)) //nolint:errcheck
			}
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		got, want := reopened.Rig(i).Engine.Stats(), twin.Rig(i).Engine.Stats()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: reopened engine: %d flushes, %d evictions, %d admit rejects in %v; twin: %d, %d, %d in %v",
				i, got.Flushes, got.Evictions, got.AdmitRejects, got.SimulatedTime,
				want.Flushes, want.Evictions, want.AdmitRejects, want.SimulatedTime)
		}
	}
}

// replayFacade drives a seeded mixed workload with one goroutine per shard,
// each applying only its shard's slice of the stream.
func replayFacade(t *testing.T, c *ShardedCache, seed uint64, ops int) Stats {
	t.Helper()
	var wg sync.WaitGroup
	for shard := 0; shard < c.NumShards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for i := 0; i < ops; i++ {
				kind := rng.Intn(10)
				k := fmt.Sprintf("obj:%05d", rng.Intn(3000))
				if c.ShardFor(k) != shard {
					continue
				}
				switch kind {
				case 0:
					c.Delete(k)
				case 1, 2, 3:
					if err := c.SetSized(k, 8192); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
				default:
					if _, _, err := c.Get(k); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
	c.Drain()
	return c.Stats()
}

// TestOpenShardedDeterminism is the facade-level acceptance check: same
// seed, same shard count, concurrent replay — identical merged stats.
func TestOpenShardedDeterminism(t *testing.T) {
	build := func() *ShardedCache {
		// Cache smaller than the 3000-key working set so eviction and zone
		// GC run during the replay, not just the fill path.
		c, err := OpenSharded(ShardedConfig{
			Config: Config{Zones: 16, CacheBytes: 16 << 20},
			Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := replayFacade(t, build(), 99, 30_000)
	b := replayFacade(t, build(), 99, 30_000)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if a.Evictions == 0 {
		t.Fatal("replay produced no evictions; shrink the cache so the test covers eviction")
	}
}
