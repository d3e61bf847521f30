package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"znscache"
	"znscache/internal/obs"
	"znscache/internal/server"
)

// openCache builds a small sharded RegionCache with value tracking — the
// cacheserver's configuration.
func openCache(t *testing.T) *znscache.ShardedCache {
	t.Helper()
	c, err := znscache.OpenSharded(znscache.ShardedConfig{
		Config: znscache.Config{Zones: 16, TrackValues: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeShardedCacheEndToEnd drives the loadgen against a server over the
// real simulated cache: the full serving path, protocol to device model.
func TestServeShardedCacheEndToEnd(t *testing.T) {
	c := openCache(t)
	defer c.Close() //nolint:errcheck
	s, err := server.New(server.Config{Backend: c})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	res, err := server.Run(server.LoadConfig{
		Addr:       s.Addr(),
		Conns:      4,
		Pipeline:   8,
		Ops:        4000,
		Keys:       2048,
		Seed:       42,
		FillOnMiss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen saw %d errors against the real cache", res.Errors)
	}
	if res.Hits == 0 || res.Fills == 0 {
		t.Fatalf("no cache activity: hits=%d fills=%d", res.Hits, res.Fills)
	}
	st := c.Stats()
	if st.Sets == 0 || st.Hits == 0 {
		t.Fatalf("cache engine saw no traffic: %+v", st)
	}
}

// startSharded serves a real sharded cache and tears it down with the test.
func startSharded(t *testing.T) (*znscache.ShardedCache, *server.Server) {
	t.Helper()
	c := openCache(t)
	s, err := server.New(server.Config{Backend: c})
	if err != nil {
		c.Close() //nolint:errcheck
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		c.Close()       //nolint:errcheck
	})
	return c, s
}

// TestMultigetAcrossShards pins the multi-key get against the real sharded
// backend: keys spread over all shards come back in request order, misses
// silently absent, and the response-order contract the client relies on for
// positional matching holds with duplicate keys too.
func TestMultigetAcrossShards(t *testing.T) {
	c, s := startSharded(t)
	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	// Enough keys to land on every shard with overwhelming probability.
	var keys []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("mget:%02d", i)
		keys = append(keys, k)
		if i%2 == 0 { // odd keys stay misses
			if r, err := cl.Set(k, uint32(i), 0, []byte(k)); err != nil || !r.Hit {
				t.Fatalf("Set(%s) = %+v, %v", k, r, err)
			}
		}
	}
	// One multiget covering hits, misses, and a duplicated key.
	req := append(append([]string{}, keys...), keys[0], keys[1])
	cl.QueueGetMulti(req)
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(req) {
		t.Fatalf("got %d responses for %d keys", len(rs), len(req))
	}
	for j, r := range rs {
		wantHit := false
		if n := j % len(keys); j < len(keys) {
			wantHit = n%2 == 0
		} else {
			wantHit = (j-len(keys))%2 == 0 // the duplicated keys[0], keys[1]
		}
		if r.Err != "" {
			t.Fatalf("response %d (%s): error %q", j, req[j], r.Err)
		}
		if r.Hit != wantHit {
			t.Fatalf("response %d (%s): hit=%v, want %v", j, req[j], r.Hit, wantHit)
		}
		if r.Hit && string(r.Value) != req[j] {
			t.Fatalf("response %d (%s): value %q", j, req[j], r.Value)
		}
	}
	if st := c.Stats(); st.Hits+st.Misses < uint64(len(req)) {
		t.Fatalf("cache saw %d lookups, want >= %d", st.Hits+st.Misses, len(req))
	}
}

// TestPipelinedReadAfterWriteAcrossShards sends one pipelined batch that
// writes and immediately reads the same keys (plus deletes), spanning every
// shard. Each get must observe the write that precedes it in the stream,
// though the dispatcher groups writes by shard and runs a phase's writes
// before its gets.
func TestPipelinedReadAfterWriteAcrossShards(t *testing.T) {
	_, s := startSharded(t)
	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	const n = 24
	var want []bool // per queued response: expected hit
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("raw:%02d", i)
		cl.QueueSet(k, 0, 0, []byte(k))
		want = append(want, true)
		cl.QueueGet(k, false) // read-your-write in the same batch
		want = append(want, true)
		if i%3 == 0 {
			cl.QueueDelete(k)
			want = append(want, true)
			cl.QueueGet(k, false) // read-your-delete
			want = append(want, false)
		}
	}
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(want) {
		t.Fatalf("got %d responses, want %d", len(rs), len(want))
	}
	j := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("raw:%02d", i)
		if r := rs[j]; r.Err != "" || !r.Hit { // STORED
			t.Fatalf("set %s: %+v", k, r)
		}
		j++
		if r := rs[j]; r.Err != "" || !r.Hit || string(r.Value) != k {
			t.Fatalf("get-after-set %s: hit=%v value=%q err=%q", k, r.Hit, r.Value, r.Err)
		}
		j++
		if i%3 == 0 {
			if r := rs[j]; r.Err != "" || !r.Hit { // DELETED
				t.Fatalf("delete %s: %+v", k, r)
			}
			j++
			if r := rs[j]; r.Err != "" || r.Hit {
				t.Fatalf("get-after-delete %s: hit=%v err=%q", k, r.Hit, r.Err)
			}
			j++
		}
	}
}

// TestPipelinedLargeBodiesAcrossShards is the sharded twin of
// TestPipelinedLargeBodiesOneBatch: four connections pipeline 4–12 KiB sets
// over one shared set of keys, each set followed by a get of its key, so
// shard write groups run on several connection goroutines at once. Every
// get must return a whole value written to its key and, when that value is
// the connection's own, the one it has just written.
func TestPipelinedLargeBodiesAcrossShards(t *testing.T) {
	_, s := startSharded(t)
	const conns, rounds, pairs, keys = 4, 6, 8, 16
	// value is connection c's round-r write of key i: a header naming all
	// three, then filler up to a size of 4–12 KiB.
	value := func(i, c, r int) []byte {
		v := fmt.Appendf(nil, "%d|%d|%d|", i, c, r)
		size := 4<<10 + (c*7+r*5+i*3)%9<<10
		return append(v, bytes.Repeat([]byte{byte('a' + (c+r+i)%26)}, size-len(v))...)
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := server.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close() //nolint:errcheck
			for r := 0; r < rounds; r++ {
				for j := 0; j < pairs; j++ {
					i := (c*4 + r*8 + j) % keys
					cl.QueueSet(fmt.Sprintf("big:%02d", i), 0, 0, value(i, c, r))
					cl.QueueGet(fmt.Sprintf("big:%02d", i), false)
				}
				rs, err := cl.Exchange()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < pairs; j++ {
					i := (c*4 + r*8 + j) % keys
					set, get := rs[2*j], rs[2*j+1]
					if set.Err != "" || !get.Hit {
						t.Errorf("conn %d round %d key %d: set %+v, get hit %v", c, r, i, set, get.Hit)
						return
					}
					var gi, gc, gr int
					if _, err := fmt.Sscanf(string(get.Value), "%d|%d|%d|", &gi, &gc, &gr); err != nil ||
						gi != i || !bytes.Equal(get.Value, value(gi, gc, gr)) {
						t.Errorf("conn %d round %d key %d: got a %d-byte value that no set wrote to it", c, r, i, len(get.Value))
						return
					}
					if gc == c && gr != r {
						t.Errorf("conn %d round %d key %d: read its own round-%d write", c, r, i, gr)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPipelinedBatchesMatchSerialOrder is the phase splitter's oracle:
// seeded pipelines of sets, deletes, gets and two-key gets over a dozen keys
// on every shard, dense in read-after-write and write-after-read pairs, must
// be answered exactly as applying the commands one at a time, in request
// order, answers them.
func TestPipelinedBatchesMatchSerialOrder(t *testing.T) {
	_, s := startSharded(t)
	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	type want struct {
		hit bool
		val string // a get's value; "" for sets and deletes
	}
	rng := rand.New(rand.NewPCG(40, 1))
	model := map[string]string{}
	key := func() string { return fmt.Sprintf("ord:%02d", rng.IntN(12)) }
	for batch := 0; batch < 200; batch++ {
		var wants []want
		get := func(k string) {
			v, ok := model[k]
			wants = append(wants, want{ok, v})
		}
		for n := 0; n < 32; n++ {
			switch k := key(); rng.IntN(4) {
			case 0:
				v := fmt.Sprintf("%s@%d.%d", k, batch, n)
				cl.QueueSet(k, 0, 0, []byte(v))
				model[k] = v
				wants = append(wants, want{hit: true})
			case 1:
				cl.QueueDelete(k)
				_, ok := model[k]
				delete(model, k)
				wants = append(wants, want{hit: ok})
			case 2:
				cl.QueueGet(k, false)
				get(k)
			case 3:
				k2 := key()
				cl.QueueGetMulti([]string{k, k2})
				get(k)
				get(k2)
			}
		}
		rs, err := cl.Exchange()
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(wants) {
			t.Fatalf("batch %d: %d responses, want %d", batch, len(rs), len(wants))
		}
		for i, r := range rs {
			w := wants[i]
			if r.Err != "" || r.Hit != w.hit || (w.val != "" && string(r.Value) != w.val) {
				t.Fatalf("batch %d response %d: hit %v value %q err %q, want hit %v value %q",
					batch, i, r.Hit, r.Value, r.Err, w.hit, w.val)
			}
		}
	}
}

// TestLoadgenMultigetEndToEnd drives the multiget-grouping loadgen against
// the real sharded cache and checks the reported batch-size distribution
// reconciles with the get count.
func TestLoadgenMultigetEndToEnd(t *testing.T) {
	_, s := startSharded(t)
	res, err := server.Run(server.LoadConfig{
		Addr:       s.Addr(),
		Conns:      4,
		Pipeline:   16,
		Ops:        4000,
		Keys:       1024,
		Seed:       21,
		FillOnMiss: true,
		Multiget:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen saw %d errors", res.Errors)
	}
	if res.Multiget != 8 || len(res.GetBatchSizes) == 0 {
		t.Fatalf("batch sizes missing: multiget=%d sizes=%v", res.Multiget, res.GetBatchSizes)
	}
	var grouped, total uint64
	for n, cnt := range res.GetBatchSizes {
		if n < 1 || n > 8 {
			t.Fatalf("batch size %d outside [1,8]", n)
		}
		if n > 1 {
			grouped += cnt
		}
		total += uint64(n) * cnt
	}
	if grouped == 0 {
		t.Fatal("no multi-key gets issued despite Multiget=8 and a 50% get mix")
	}
	// Every issued get produced exactly one classified response (errors are
	// zero, so none were truncated).
	if total != res.Gets {
		t.Fatalf("batch sizes sum to %d gets, loadgen classified %d", total, res.Gets)
	}
}

// TestBatchedFastReadSpans: a pipelined batch's gets reach a sharded cache
// as one GetMulti call, and span sampling still times each key's path. With
// every get sampled, a batch of N hits over four shards records N fast_get
// samples and no locked_get.
func TestBatchedFastReadSpans(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.SpanConfig{SampleEvery: 1})
	c, err := znscache.OpenSharded(znscache.ShardedConfig{
		Config: znscache.Config{Zones: 16, TrackValues: true, FastReads: true, Spans: rec},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	s, err := server.New(server.Config{Backend: c})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	const n = 32
	for i := 0; i < n; i++ {
		cl.QueueSet(fmt.Sprintf("span:%02d", i), 0, 0, []byte("v"))
	}
	if _, err := cl.Exchange(); err != nil {
		t.Fatal(err)
	}
	fast0 := rec.StageSnapshot(obs.StageFastGet).Count
	locked0 := rec.StageSnapshot(obs.StageLockedGet).Count
	for i := 0; i < n; i++ {
		cl.QueueGet(fmt.Sprintf("span:%02d", i), false)
	}
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Hit {
			t.Fatalf("get %d missed", i)
		}
	}
	// The cache records each sample before the server writes the batch's
	// responses, so all of them are in by now.
	if got := rec.StageSnapshot(obs.StageFastGet).Count - fast0; got != n {
		t.Fatalf("%d fast_get samples for a batch of %d hits", got, n)
	}
	if got := rec.StageSnapshot(obs.StageLockedGet).Count - locked0; got != 0 {
		t.Fatalf("%d locked_get samples for a batch of lock-free hits", got)
	}
}

// TestShutdownThenWarmRoll is the full graceful-shutdown story: serve
// traffic, Shutdown the server, Close the cache (snapshot), Reopen it, and
// verify the reopened cache still serves the pre-shutdown keys through a
// fresh server.
func TestShutdownThenWarmRoll(t *testing.T) {
	c := openCache(t)
	s, err := server.New(server.Config{Backend: c})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck

	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("warm:%03d", i)
		if r, err := cl.Set(k, uint32(i), 0, []byte(k)); err != nil || !r.Hit {
			t.Fatalf("Set(%s) = %+v, %v", k, r, err)
		}
	}
	cl.Close() //nolint:errcheck

	// Shutdown ordering: stop the server first (drains in-flight work),
	// then Close the cache so the snapshot covers everything served.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("cache Close: %v", err)
	}

	r2, err := c.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close() //nolint:errcheck
	if got := r2.Len(); got != keys {
		t.Fatalf("reopened cache Len = %d, want %d", got, keys)
	}

	// A fresh server over the reopened cache serves the old data with the
	// original flags.
	s2, err := server.New(server.Config{Backend: r2})
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve() //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx) //nolint:errcheck
	}()
	cl2, err := server.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close() //nolint:errcheck
	for _, i := range []int{0, 7, 50, 99} {
		k := fmt.Sprintf("warm:%03d", i)
		r, err := cl2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Hit || string(r.Value) != k || r.Flags != uint32(i) {
			t.Fatalf("after warm roll Get(%s) = hit=%v value=%q flags=%d", k, r.Hit, r.Value, r.Flags)
		}
	}
}

// TestStatsExtraExposesCacheNumbers wires cache stats into the stats
// command the way cmd/cacheserver does.
func TestStatsExtraExposesCacheNumbers(t *testing.T) {
	c := openCache(t)
	defer c.Close() //nolint:errcheck
	s, err := server.New(server.Config{
		Backend: c,
		StatsExtra: func() map[string]string {
			st := c.Stats()
			return map[string]string{
				"cache_hit_ratio": fmt.Sprintf("%.4f", st.HitRatio),
				"cache_scheme":    st.Scheme.String(),
				"cache_wa_factor": fmt.Sprintf("%.3f", st.WriteAmplification),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	cl, err := server.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache_hit_ratio", "cache_scheme", "cache_wa_factor"} {
		if _, ok := st[want]; !ok {
			t.Errorf("stats missing %s: %v", want, st)
		}
	}
	if st["cache_scheme"] == "" {
		t.Fatal("cache_scheme empty")
	}
}
