package server

import (
	"context"
	"net"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/ssd"
	"znscache/internal/store"
)

// FuzzProtocol throws arbitrary bytes at a live server. The invariants: the
// server never panics (a recovered panic is counted, and asserted zero), and
// it keeps serving fresh connections no matter what a previous connection
// sent. Response content is not asserted — garbage may legitimately earn
// ERROR, CLIENT_ERROR, or a severed connection.
func FuzzProtocol(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"gets a b c\r\n",
		"set k 0 0 3\r\nabc\r\n",
		"set k 0 0 3 noreply\r\nabc\r\n",
		"delete k\r\n",
		"stats\r\nversion\r\nquit\r\n",
		"set k 0 0 999999999\r\n",
		"set k 0 0 -1\r\n",
		"set k \xff\xfe 0 3\r\nabc\r\n",
		"\r\n\r\n\r\n",
		"get \x00\x01\x02\r\n",
		"set k 0 0 3\r\nabcdef\r\n",
		"VALUE injection 0 0\r\n\r\nEND\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	b := newMapBackend()
	b.m["k"] = encodeValue(0, []byte("v"))
	srv, err := New(Config{
		Backend:     b,
		ReadTimeout: 200 * time.Millisecond,
		IdleTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})

	f.Fuzz(func(t *testing.T, data []byte) { fuzzOneInput(t, srv, data) })
}

// fuzzOneInput throws data at srv over a fresh connection, drains whatever
// comes back, and asserts the shared invariants: no recovered panics and the
// server still answers a well-formed client afterwards.
func fuzzOneInput(t *testing.T, srv *Server, data []byte) {
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("server stopped accepting: %v", err)
	}
	nc.SetDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	nc.Write(data)                              //nolint:errcheck
	// Drain whatever comes back until the server closes or goes quiet.
	buf := make([]byte, 4096)
	nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	nc.Close() //nolint:errcheck

	if n := srv.m.panics.Load(); n != 0 {
		t.Fatalf("server recovered %d panic(s) on input %q", n, data)
	}
	// The server must still serve a well-formed client.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("server dead after input %q: %v", data, err)
	}
	cl.Timeout = 2 * time.Second
	if _, err := cl.Version(); err != nil {
		t.Fatalf("server unresponsive after input %q: %v", data, err)
	}
	cl.Close() //nolint:errcheck
}

// FuzzProto targets the batched parse/dispatch path over the real sharded
// cache: multi-key gets, pipelined mixed batches with read-after-write and
// write-after-read pairs, and mid-batch malformed commands all flow through
// the phase splitter and the shard write groups. Same invariants as FuzzProtocol — no
// panics, server stays responsive — but the seeds aim at the batch
// machinery (phase boundaries, batch caps, multiget rendering) rather than
// single-command parsing.
func FuzzProto(f *testing.F) {
	seeds := []string{
		// Multi-key gets: hits, misses, duplicates, many keys.
		"get a b c\r\n",
		"get k k k k\r\n",
		"gets a a b\r\n",
		"get " + "x y z w v u t s r q p o n m l k j i h g f e d c b a" + "\r\n",
		// Pipelined mixed batch with read-after-write and write-after-read.
		"set a 0 0 1\r\nA\r\nget a\r\nset b 0 0 1\r\nB\r\nget a b\r\ndelete a\r\nget a\r\n",
		"get a\r\nset a 0 0 1\r\nZ\r\nget a\r\n",
		// noreply mid-batch and a stats flush point.
		"set a 1 0 1 noreply\r\nQ\r\nget a\r\nstats\r\nget a\r\n",
		// Malformed commands sandwiched between valid ones.
		"set a 0 0 1\r\nA\r\nbogus\r\nget a\r\n",
		"get a\r\nset b x y 1\r\nB\r\nget b\r\n",
		"set a 0 0 5\r\nAB\r\nget a\r\n",
		// Batch-cap pressure: many tiny ops in one write.
		"get a\r\nget b\r\nget c\r\nget d\r\nget e\r\nget f\r\nget g\r\nget h\r\n" +
			"set a 0 0 1\r\n1\r\nset b 0 0 1\r\n2\r\ndelete c\r\ndelete d\r\n",
		"version\r\nget a b\r\nversion\r\nquit\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	c := newFuzzSharded(f, 4)
	srv, err := New(Config{
		Backend:     c,
		ReadTimeout: 200 * time.Millisecond,
		IdleTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	if srv.sharded == nil {
		f.Fatal("sharded dispatch not active; FuzzProto would only cover the inline path")
	}
	go srv.Serve() //nolint:errcheck
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})

	f.Fuzz(func(t *testing.T, data []byte) { fuzzOneInput(t, srv, data) })
}

// fuzzSharded adapts cache.Sharded to this package's Backend +
// ShardedBackend, so FuzzProto exercises the phase splitter and the shard
// write groups against real cache engines without importing the root
// package (which would close an import cycle through harness).
type fuzzSharded struct{ sh *cache.Sharded }

func (b *fuzzSharded) Get(key string) ([]byte, bool, error) { return b.sh.Get(key) }
func (b *fuzzSharded) Set(key string, value []byte) error   { return b.sh.Set(key, value, len(value)) }
func (b *fuzzSharded) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	return b.sh.SetTTL(key, value, len(value), ttl)
}
func (b *fuzzSharded) Delete(key string) bool  { return b.sh.Delete(key) }
func (b *fuzzSharded) Len() int                { return b.sh.Len() }
func (b *fuzzSharded) NumShards() int          { return b.sh.NumShards() }
func (b *fuzzSharded) ShardFor(key string) int { return b.sh.ShardFor(key) }
func (b *fuzzSharded) ExecShard(i int, fn func(*cache.Cache)) error {
	b.sh.WithShard(i, fn)
	return nil
}

// newFuzzSharded builds shards small block-cache engines, each over its own
// tiny emulated SSD so values survive region flushes and Get returns real
// payload bytes.
func newFuzzSharded(tb testing.TB, shards int) *fuzzSharded {
	tb.Helper()
	const regionBytes = 64 << 10
	engines := make([]*cache.Cache, shards)
	for i := range engines {
		dev, err := ssd.New(ssd.Config{
			Geometry: flash.Geometry{
				Channels: 2, DiesPerChan: 1, BlocksPerDie: 16,
				PagesPerBlock: 16, PageSize: device.SectorSize,
			},
			Timing:    flash.DefaultTiming(),
			StoreData: true,
		})
		if err != nil {
			tb.Fatalf("shard %d ssd: %v", i, err)
		}
		regions := int(dev.Size() / regionBytes)
		if regions > 8 {
			regions = 8
		}
		st, err := store.NewBlockStore(dev, "block", regionBytes, regions)
		if err != nil {
			tb.Fatalf("shard %d store: %v", i, err)
		}
		eng, err := cache.New(cache.Config{Store: st, TrackValues: true})
		if err != nil {
			tb.Fatalf("shard %d engine: %v", i, err)
		}
		engines[i] = eng
	}
	sh, err := cache.NewSharded(engines)
	if err != nil {
		tb.Fatal(err)
	}
	return &fuzzSharded{sh: sh}
}
