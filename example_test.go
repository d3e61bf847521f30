package znscache_test

import (
	"fmt"
	"time"

	"znscache"
)

// ExampleOpen shows basic cache usage on the paper's Region-Cache scheme.
func ExampleOpen() {
	c, err := znscache.Open(znscache.Config{
		Scheme:      znscache.RegionCache,
		Zones:       12,
		TrackValues: true,
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	c.Set("greeting", []byte("hello, zoned world"))
	val, ok, _ := c.Get("greeting")
	fmt.Println(ok, string(val))

	c.Delete("greeting")
	_, ok, _ = c.Get("greeting")
	fmt.Println(ok)
	// Output:
	// true hello, zoned world
	// false
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
