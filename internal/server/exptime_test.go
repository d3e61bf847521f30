package server

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// The engine keeps TTL deadlines in whole seconds of its clock, rounded up,
// counted from the shard clock a set found: a relative TTL of n s set at a
// whole second lives n s, an absolute exptime T lives until T. The tests
// below pin every deadline to that boundary: live 1ns before, gone at it.
// No wall-clock reading can land an item on it exactly.

// setExp sets key to "v" with the given memcached exptime.
func setExp(t *testing.T, cl *Client, key string, exptime int64) {
	t.Helper()
	if _, err := cl.Set(key, 0, exptime, []byte("v")); err != nil {
		t.Fatalf("set %s exptime=%d: %v", key, exptime, err)
	}
}

// TestExptimeCutoffBoundaryOnShardClock pins WallBase and drives the shard
// clocks directly, asserting the 30-day-rule boundary:
//
//   - exptime == relativeExpCutoff: relative — the item lives exactly
//     exptime seconds past its set on the shard clock, wherever that clock
//     stood;
//   - exptime == relativeExpCutoff+1: absolute — interpreted as a unix time
//     anchored at WallBase, resolved against the shard clock at execution.
//
// The exact engine-clock deadlines are the regression teeth: an absolute
// exptime resolved on the wall clock (time.Until) lands far from them.
func TestExptimeCutoffBoundaryOnShardClock(t *testing.T) {
	base := time.Unix(1_000_000_000, 0) // arbitrary pinned anchor
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, WallBase: base})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	// Park the shard clocks far from zero so a relative TTL that accidentally
	// read them as absolute would be visibly wrong.
	const parked = 100_000 * time.Second
	b.advanceAll(t, parked)

	// At the cutoff: still relative.
	setExp(t, cl, "rel", relativeExpCutoff)

	// One past the cutoff: absolute. As a unix time it is ~Feb 1970, long
	// before WallBase, so the value must be treated as already expired —
	// observably a delete, never a store.
	setExp(t, cl, "past", relativeExpCutoff+1)
	if r, _ := cl.Get("past"); r.Hit {
		t.Fatal("exptime=cutoff+1 (past unix time) left the key visible")
	}

	// A future absolute exptime resolves on the shard clock: its deadline is
	// exptime − WallBase, wherever the shard clock stood at the set.
	exptime := base.Unix() + 2_600_000
	setExp(t, cl, "abs", exptime)
	b.expiresAt(t, 2_600_000*time.Second, "abs")

	// Move the shard clocks to that deadline: the same exptime is now
	// expired on the shard clock (wall time has barely moved).
	b.advanceAll(t, 2_600_000*time.Second)
	setExp(t, cl, "abs2", exptime)
	if r, _ := cl.Get("abs2"); r.Hit {
		t.Fatal("shard-clock-expired absolute exptime left the key visible")
	}

	b.expiresAt(t, parked+relativeExpCutoff*time.Second, "rel")
}

// TestAbsoluteExptimeReplayDeterministic replays one request sequence with
// absolute exptimes twice, each run against a fresh server with the same
// pinned WallBase and the same shard-clock schedule. Every item must expire
// exactly at the predicted shard-clock deadline in both runs — the
// determinism property a wall-clock resolution breaks (two runs parse at
// different wall instants, so time.Until yields different durations every
// time).
func TestAbsoluteExptimeReplayDeterministic(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	schedule := []time.Duration{0, 7 * time.Second, 90 * time.Second, 3 * time.Hour}
	exptimes := []int64{
		base.Unix() + 3600,       // 1h after base
		base.Unix() + 86_400,     // 1d after base
		base.Unix() + 12_000_000, // ~139d after base
	}

	type item struct {
		key      string
		deadline time.Duration
	}
	run := func() []item {
		b := newTestBackend(t)
		s := startServer(t, Config{Backend: b, WallBase: base})
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close() //nolint:errcheck
		var pending, checked []item
		// check asserts the deadlines up to until, in deadline order, before
		// the shard clocks move past them.
		check := func(until time.Duration) {
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].deadline < pending[j].deadline })
			for len(pending) > 0 && pending[0].deadline <= until {
				d := pending[0].deadline
				var keys []string
				for len(pending) > 0 && pending[0].deadline == d {
					keys = append(keys, pending[0].key)
					checked, pending = append(checked, pending[0]), pending[1:]
				}
				b.expiresAt(t, d, keys...)
			}
		}
		for i, now := range schedule {
			check(now)
			b.advanceAll(t, now)
			for j, exp := range exptimes {
				key := fmt.Sprintf("k%d_%d", i, j)
				setExp(t, cl, key, exp)
				at := time.Duration(exp-base.Unix()) * time.Second
				if at <= now {
					if r, _ := cl.Get(key); r.Hit {
						t.Fatalf("%s: exptime %v past the shard clock stored as live", key, at)
					}
					continue
				}
				pending = append(pending, item{key, at})
			}
		}
		check(1 << 62)
		return checked
	}

	first := run()
	second := run()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("replay diverged:\n%v\n%v", first, second)
	}
}
