package znscache_test

import (
	"fmt"
	"time"

	"znscache"
	"znscache/internal/workload"
)

// ExampleOpen stores, overwrites and deletes an object on the paper's
// Region-Cache scheme, then fills past one region so data reaches the
// simulated ZNS device.
func ExampleOpen() {
	c, err := znscache.Open(znscache.Config{
		Scheme:      znscache.RegionCache,
		Zones:       12,   // 12 × 16 MiB simulated zones
		TrackValues: true, // keep payload bytes so Get returns real data
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	c.Set("user:1001", []byte(`{"name":"ada","plan":"pro"}`))
	val, ok, _ := c.Get("user:1001")
	fmt.Println(ok, string(val))

	c.Set("user:1001", []byte(`{"name":"ada","plan":"enterprise"}`))
	val, _, _ = c.Get("user:1001")
	fmt.Println(string(val))

	c.Delete("user:1001")
	_, ok, _ = c.Get("user:1001")
	fmt.Println(ok)

	for i := 0; i < 2000; i++ {
		c.Set(fmt.Sprintf("obj:%05d", i), make([]byte, 4096))
	}
	for i := 0; i < 2000; i += 100 {
		c.Get(fmt.Sprintf("obj:%05d", i))
	}
	st := c.Stats()
	fmt.Printf("%v: items=%d hits=%d misses=%d evictions=%d WAF=%.2f\n",
		st.Scheme, st.Items, st.Hits, st.Misses, st.Evictions, st.WriteAmplification)
	// Output:
	// true {"name":"ada","plan":"pro"}
	// {"name":"ada","plan":"enterprise"}
	// false
	// Region-Cache: items=2000 hits=22 misses=1 evictions=0 WAF=1.00
}

// ExampleShardedCache_SetWithTTL shows expiry on the simulated clock.
func ExampleShardedCache_SetWithTTL() {
	c, _ := znscache.Open(znscache.Config{Zones: 8, TrackValues: true})
	defer c.Close()

	c.SetWithTTL("session", []byte("token"), 30*time.Second)
	_, ok, _ := c.Get("session")
	fmt.Println("before expiry:", ok)

	// Advance simulated time past the TTL (no real sleeping).
	c.Rig(0).Clock.Advance(time.Minute)
	_, ok, _ = c.Get("session")
	fmt.Println("after expiry:", ok)
	// Output:
	// before expiry: true
	// after expiry: false
}

// ExampleOpenKV shows the LSM store with a flash secondary cache.
func ExampleOpenKV() {
	kv, err := znscache.OpenKV(znscache.KVConfig{
		Scheme:      znscache.ZoneCache,
		StoreValues: true,
	})
	if err != nil {
		panic(err)
	}
	kv.Put("user:1", []byte("ada"))
	kv.Put("user:2", []byte("grace"))
	kv.Flush()

	kv.Scan("user:", "user;", func(k string, v []byte) bool {
		fmt.Println(k, string(v))
		return true
	})
	// Output:
	// user:1 ada
	// user:2 grace
}

// ExampleOpenKV_secondaryCache is the §4.2 setup as a library user
// assembles it: an LSM store on a simulated HDD, loaded with fillrandom and
// read with skewed readrandom, once with a Region-Cache as its flash
// secondary cache and once without. Blocks the DRAM block cache misses are
// read from flash instead of the disk.
func ExampleOpenKV_secondaryCache() {
	const keys, reads = 80_000, 12_000
	run := func(disableSecondary bool) (time.Duration, znscache.KVStats) {
		kv, err := znscache.OpenKV(znscache.KVConfig{
			Scheme:           znscache.RegionCache,
			DisableSecondary: disableSecondary,
		})
		if err != nil {
			panic(err)
		}
		fill := workload.NewFillRandom(keys, 64, 11)
		for op, ok := fill.Next(); ok; op, ok = fill.Next() {
			kv.PutSized(op.Key, op.ValLen)
		}
		kv.Flush()
		gen := workload.NewExpRange(keys, 25, 13)
		start := kv.SimulatedTime()
		for i := 0; i < reads; i++ {
			kv.Get(workload.KeyName(gen.Next()))
		}
		return kv.SimulatedTime() - start, kv.Stats()
	}
	withCache, st := run(false)
	baseline, base := run(true)
	fmt.Printf("with Region-Cache: %d disk reads, flash hit %.1f%% over %d lookups\n",
		st.DiskReads, st.SecondaryHitRatio*100, st.SecondaryLookups)
	fmt.Printf("no secondary cache: %d disk reads\n", base.DiskReads)
	fmt.Printf("read phase %.1fx faster with the flash cache\n", baseline.Seconds()/withCache.Seconds())
	// Output:
	// with Region-Cache: 889 disk reads, flash hit 49.3% over 1754 lookups
	// no secondary cache: 1754 disk reads
	// read phase 2.1x faster with the flash cache
}
