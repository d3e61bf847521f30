package znscache

import (
	"context"
	"testing"
	"time"

	"znscache/internal/server"
)

// TestAbsoluteExptimeOnShardClockSharded drives the full serving stack — a
// ShardedCache behind the memcached server — and asserts absolute exptimes
// resolve on the per-shard simulated clocks (the dispatch path's exec-time
// resolution on the engine clock), not the wall clock. WallBase is
// pinned far from the test's real wall time, so any wall-clock reading
// produces wildly wrong TTLs the assertions would catch.
func TestAbsoluteExptimeOnShardClockSharded(t *testing.T) {
	base := time.Unix(1_800_000_000, 0)
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Scheme: RegionCache, Zones: 8, TrackValues: true},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Backend: c, WallBase: base})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	cl, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	// Shard clocks start near zero: an exptime 1h past base is live.
	if _, err := cl.Set("live", 0, base.Unix()+3600, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if r, _ := cl.Get("live"); !r.Hit {
		t.Fatal("absolute exptime 1h past WallBase missed with shard clocks at 0")
	}

	// An exptime before base is already expired regardless of shard time.
	if _, err := cl.Set("old", 0, base.Unix()-10, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if r, _ := cl.Get("old"); r.Hit {
		t.Fatal("absolute exptime before WallBase stored as live")
	}

	// Advance every shard clock past the 1h deadline: a fresh set of the same
	// exptime must now be treated as expired on the shard clock — the wall
	// clock has moved only microseconds.
	for i := 0; i < c.NumShards(); i++ {
		c.Rig(i).Clock.Advance(2 * time.Hour)
	}
	if _, err := cl.Set("late", 0, base.Unix()+3600, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if r, _ := cl.Get("late"); r.Hit {
		t.Fatal("shard-clock-expired absolute exptime stored as live")
	}
	// The earlier live key also expired as its shard clock crossed the
	// deadline — TTLs and absolute exptimes share one clock.
	if r, _ := cl.Get("live"); r.Hit {
		t.Fatal("key outlived its absolute exptime on the shard clock")
	}
}
