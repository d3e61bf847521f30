package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/obs"
	"znscache/internal/ssd"
	"znscache/internal/store"
)

// testBackend is the backend the package's tests serve: cache.Sharded over
// four small engines, each over its own emulated SSD that keeps payload,
// with regions large enough for every value the tests store. Get can be
// parked (blockGet/getEntered, for the drain tests) or fail per key
// (failKeys, for the multiget truncation tests); set the hooks before the
// server starts. It has no GetMulti, so every get reaches them.
type testBackend struct {
	sh *cache.Sharded

	// blockGet, when non-nil, is received from inside Get after signalling
	// getEntered — the shutdown tests park a request here.
	blockGet   chan struct{}
	getEntered chan struct{}
	failKeys   map[string]error
}

func newTestBackend(tb testing.TB) *testBackend {
	tb.Helper()
	const shards, regions, regionBytes = 4, 8, 1 << 20
	// Probes read the shard clock without moving it (liveAt).
	cpu := cache.DefaultCPUModel()
	cpu.IndexLookup = 0
	engines := make([]*cache.Cache, shards)
	for i := range engines {
		dev, err := ssd.New(ssd.Config{
			Geometry: flash.Geometry{
				Channels: 2, DiesPerChan: 2, BlocksPerDie: 40,
				PagesPerBlock: 32, PageSize: device.SectorSize,
			},
			Timing:    flash.DefaultTiming(),
			StoreData: true,
		})
		if err != nil {
			tb.Fatalf("shard %d ssd: %v", i, err)
		}
		st, err := store.NewBlockStore(dev, "block", regionBytes, regions)
		if err != nil {
			tb.Fatalf("shard %d store: %v", i, err)
		}
		eng, err := cache.New(cache.Config{
			Store: st, TrackValues: true, CPU: cpu, BufferMemory: 2 * regionBytes,
		})
		if err != nil {
			tb.Fatalf("shard %d engine: %v", i, err)
		}
		engines[i] = eng
	}
	sh, err := cache.NewSharded(engines)
	if err != nil {
		tb.Fatal(err)
	}
	return &testBackend{sh: sh}
}

func (b *testBackend) Get(key string) ([]byte, bool, error) {
	if b.blockGet != nil {
		select {
		case b.getEntered <- struct{}{}:
		default:
		}
		<-b.blockGet
	}
	if err := b.failKeys[key]; err != nil {
		return nil, false, err
	}
	return b.sh.Get(key)
}

func (b *testBackend) Set(key string, value []byte) error { return b.sh.Set(key, value, 0) }
func (b *testBackend) SetWithTTL(key string, value []byte, ttl time.Duration) error {
	return b.sh.SetTTL(key, value, 0, ttl)
}
func (b *testBackend) Delete(key string) bool  { return b.sh.Delete(key) }
func (b *testBackend) Len() int                { return b.sh.Len() }
func (b *testBackend) NumShards() int          { return b.sh.NumShards() }
func (b *testBackend) ShardFor(key string) int { return b.sh.ShardFor(key) }
func (b *testBackend) ExecShard(i int, fn func(*cache.Cache)) error {
	b.sh.WithShard(i, fn)
	return nil
}

// put stores val under key with zero flags, as a set would.
func (b *testBackend) put(tb testing.TB, key, val string) {
	tb.Helper()
	if err := b.Set(key, encodeValue(0, []byte(val))); err != nil {
		tb.Fatal(err)
	}
}

// advance moves shard i's clock to at; a clock already past it fails tb.
func (b *testBackend) advance(tb testing.TB, i int, at time.Duration) {
	tb.Helper()
	var now time.Duration
	b.ExecShard(i, func(eng *cache.Cache) { now = eng.Clock().AdvanceTo(at) }) //nolint:errcheck
	if now != at {
		tb.Fatalf("shard %d clock at %v, past %v", i, now, at)
	}
}

// advanceAll moves every shard clock to at.
func (b *testBackend) advanceAll(tb testing.TB, at time.Duration) {
	tb.Helper()
	for i := 0; i < b.NumShards(); i++ {
		b.advance(tb, i, at)
	}
}

// liveAt reports whether key is live with its shard's clock moved to at.
func (b *testBackend) liveAt(tb testing.TB, key string, at time.Duration) bool {
	tb.Helper()
	i := b.ShardFor(key)
	b.advance(tb, i, at)
	var ok bool
	b.ExecShard(i, func(eng *cache.Cache) { ok = eng.Contains(key) }) //nolint:errcheck
	return ok
}

// expiresAt asserts that every key is live 1ns before deadline on its
// shard's clock and gone at it.
func (b *testBackend) expiresAt(tb testing.TB, deadline time.Duration, keys ...string) {
	tb.Helper()
	for _, key := range keys {
		if !b.liveAt(tb, key, deadline-1) {
			tb.Fatalf("%s gone at %v, want live until %v", key, deadline-1, deadline)
		}
	}
	for _, key := range keys {
		if b.liveAt(tb, key, deadline) {
			tb.Fatalf("%s live at %v, want gone at its deadline", key, deadline)
		}
	}
}

// plainBackend hides testBackend's shard methods: a Backend that is not a
// ShardedBackend, served on the inline path.
type plainBackend struct{ Backend }

// startServer runs a server over the backend and tears it down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

func TestProtocolBasics(t *testing.T) {
	t.Run("sharded", func(t *testing.T) { testProtocolBasics(t, newTestBackend(t)) })
	t.Run("inline", func(t *testing.T) { testProtocolBasics(t, plainBackend{newTestBackend(t)}) })
}

func testProtocolBasics(t *testing.T, b Backend) {
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	if v, err := cl.Version(); err != nil || v != Version {
		t.Fatalf("Version = %q, %v", v, err)
	}

	r, err := cl.Set("alpha", 7, 0, []byte("hello world"))
	if err != nil || !r.Hit || r.Err != "" {
		t.Fatalf("Set = %+v, %v", r, err)
	}
	r, err = cl.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit || string(r.Value) != "hello world" || r.Flags != 7 {
		t.Fatalf("Get = %+v", r)
	}

	// gets returns a cas token that is stable for an unchanged value and
	// changes when the value changes.
	g1, err := cl.Gets("alpha")
	if err != nil || !g1.Hit {
		t.Fatalf("Gets = %+v, %v", g1, err)
	}
	g2, _ := cl.Gets("alpha")
	if g1.Cas != g2.Cas {
		t.Fatalf("cas changed for an unchanged value: %d vs %d", g1.Cas, g2.Cas)
	}
	if _, err := cl.Set("alpha", 7, 0, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	g3, _ := cl.Gets("alpha")
	if g3.Cas == g1.Cas {
		t.Fatal("cas unchanged after the value changed")
	}

	if r, _ := cl.Get("missing"); r.Hit {
		t.Fatalf("Get(missing) = %+v", r)
	}
	if r, _ := cl.Delete("alpha"); !r.Hit {
		t.Fatalf("Delete = %+v", r)
	}
	if r, _ := cl.Delete("alpha"); r.Hit {
		t.Fatal("second Delete reported DELETED")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cmd_get", "cmd_set", "get_hits", "get_misses", "curr_items", "uptime_seconds"} {
		if _, ok := st[want]; !ok {
			t.Errorf("stats missing %s: %v", want, st)
		}
	}
	if st["cmd_set"] == "0" {
		t.Fatalf("cmd_set = %s after sets", st["cmd_set"])
	}
}

// noShards is a ShardedBackend that reports no shards.
type noShards struct{ *testBackend }

func (noShards) NumShards() int { return 0 }

func TestNewRejectsShardlessBackend(t *testing.T) {
	if _, err := New(Config{Backend: noShards{newTestBackend(t)}}); err == nil {
		t.Fatal("New accepted a ShardedBackend with no shards")
	}
}

// TestInlinePathExptimes serves a Backend that is not a ShardedBackend: with
// no shard clock, absolute exptimes resolve on the wall clock from WallBase.
func TestInlinePathExptimes(t *testing.T) {
	s := startServer(t, Config{Backend: plainBackend{newTestBackend(t)}})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	setExp(t, cl, "rel", 60)
	setExp(t, cl, "future", time.Now().Add(time.Hour).Unix())
	setExp(t, cl, "past", time.Now().Add(-time.Hour).Unix())
	cl.QueueGetMulti([]string{"rel", "future", "past"})
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Hit || !rs[1].Hit || rs[2].Hit {
		t.Fatalf("hits rel/future/past = %v/%v/%v, want true/true/false", rs[0].Hit, rs[1].Hit, rs[2].Hit)
	}
}

// rawExchange writes raw bytes and reads until the deadline or n bytes of
// response, for driving malformed input that Client cannot produce.
func rawExchange(t *testing.T, addr string, req string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	return rawOn(t, nc, req)
}

func rawOn(t *testing.T, nc net.Conn, req string) string {
	t.Helper()
	nc.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	var out []byte
	nc.SetReadDeadline(time.Now().Add(150 * time.Millisecond)) //nolint:errcheck
	for {
		n, err := nc.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	return string(out)
}

func TestProtocolMalformed(t *testing.T) {
	cases := []struct {
		name string
		req  string
		want string // substring the response must contain
	}{
		{"empty line", "\r\n", "ERROR"},
		{"unknown command", "frobnicate now\r\n", "ERROR"},
		{"get without key", "get\r\n", "ERROR"},
		{"get oversized key", "get " + strings.Repeat("k", 251) + "\r\n", "CLIENT_ERROR bad key"},
		{"get control-char key", "get a\x01b\r\n", "CLIENT_ERROR bad key"},
		{"set bad length", "set k 0 0 notanumber\r\nxxx\r\n", "CLIENT_ERROR bad data chunk length"},
		{"set negative length", "set k 0 0 -5\r\n", "CLIENT_ERROR bad data chunk length"},
		{"set missing fields", "set k 0\r\n", "CLIENT_ERROR bad command line format"},
		{"set bad terminator", "set k 0 0 3\r\nabcXX", "CLIENT_ERROR bad data chunk"},
		{"set bad flags", "set k notanum 0 3\r\nabc\r\n", "CLIENT_ERROR bad command line format"},
		{"set bad exptime", "set k 0 xyz 3\r\nabc\r\n", "CLIENT_ERROR bad command line format"},
		{"set bad fifth arg", "set k 0 0 3 blah\r\nabc\r\n", "CLIENT_ERROR bad command line format"},
		{"delete without key", "delete\r\n", "CLIENT_ERROR bad command line format"},
		{"delete extra args", "delete k x\r\n", "CLIENT_ERROR bad command line format"},
		{"truncated set", "set k 0 0 10\r\nabc", ""}, // body never arrives; no reply owed
		{"line too long", strings.Repeat("g", 5000) + "\r\n", "CLIENT_ERROR line too long"},
	}
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, ReadTimeout: 300 * time.Millisecond})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := rawExchange(t, s.Addr(), tc.req)
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("response %q does not contain %q", got, tc.want)
			}
		})
	}
	if s.m.protoErrors.Load() == 0 {
		t.Fatal("malformed commands were not counted as protocol errors")
	}
	// The server survives all of it: a fresh connection still works.
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Version(); err != nil {
		t.Fatalf("server unusable after malformed traffic: %v", err)
	}
}

// TestMalformedKillsOnlyOffender pins that a fatal protocol error severs the
// offending connection and nothing else.
func TestMalformedKillsOnlyOffender(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})

	good, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close() //nolint:errcheck
	if _, err := good.Set("keep", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}

	bad, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	resp := rawOn(t, bad, "set k 0 0 zap\r\n")
	if !strings.Contains(resp, "CLIENT_ERROR") {
		t.Fatalf("offender response %q", resp)
	}
	// The offender's connection is closed: another write+read sees EOF/reset.
	bad.SetDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	bad.Write([]byte("version\r\n"))             //nolint:errcheck
	one := make([]byte, 1)
	if _, err := bad.Read(one); err == nil {
		t.Fatal("offending connection still open after a fatal protocol error")
	}
	bad.Close() //nolint:errcheck

	// The good connection is untouched.
	r, err := good.Get("keep")
	if err != nil || !r.Hit {
		t.Fatalf("innocent connection broken: %+v, %v", r, err)
	}
}

func TestNoreplyAndMultiGet(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	// Two noreply sets produce no output; the multi-get that follows is the
	// first response on the wire.
	req := "set a 1 0 2 noreply\r\nAA\r\n" +
		"set b 2 0 2 noreply\r\nBB\r\n" +
		"get a b missing\r\n"
	got := rawOn(t, nc, req)
	want := "VALUE a 1 2\r\nAA\r\nVALUE b 2 2\r\nBB\r\nEND\r\n"
	if got != want {
		t.Fatalf("multi-get after noreply sets:\n got %q\nwant %q", got, want)
	}
	// delete noreply: silent, observable through the next get.
	got = rawOn(t, nc, "delete a noreply\r\nget a\r\n")
	if got != "END\r\n" {
		t.Fatalf("after noreply delete: %q", got)
	}
}

// TestExptimeSemantics serves memcached's exptime forms on the shard clocks,
// parked at a whole second so each engine deadline is exact (see
// exptime_test.go).
func TestExptimeSemantics(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	const parked = 1000 * time.Second
	b.advanceAll(t, parked)

	// Relative: seconds become a TTL.
	setExp(t, cl, "rel", 60)
	// Zero: no TTL.
	setExp(t, cl, "zero", 0)
	// Negative: already expired — observably deleted.
	setExp(t, cl, "neg", -1)
	if r, _ := cl.Get("neg"); r.Hit {
		t.Fatal("negative exptime left the key visible")
	}
	// Absolute future unix time, an hour past WallBase (the server's start):
	// the deadline lies about an hour into shard time.
	setExp(t, cl, "abs", time.Now().Add(time.Hour).Unix())
	// Absolute past unix time: expired — deleted.
	setExp(t, cl, "past", time.Now().Add(-time.Hour).Unix())
	if r, _ := cl.Get("past"); r.Hit {
		t.Fatal("past absolute exptime left the key visible")
	}

	b.expiresAt(t, parked+60*time.Second, "rel")
	if !b.liveAt(t, "abs", 3590*time.Second) || b.liveAt(t, "abs", 3610*time.Second) {
		t.Fatal("absolute exptime an hour out did not expire an hour into shard time")
	}
	if !b.liveAt(t, "zero", 3610*time.Second) {
		t.Fatal("exptime 0 expired")
	}
}

func TestOversizedValueRefusedConnectionSurvives(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, MaxValueBytes: 1024})

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	big := strings.Repeat("x", 4096)
	got := rawOn(t, nc, "set big 0 0 4096\r\n"+big+"\r\n")
	if !strings.Contains(got, "SERVER_ERROR object too large for cache") {
		t.Fatalf("oversized set response %q", got)
	}
	// The stream stayed in sync and the connection survives.
	got = rawOn(t, nc, "set ok 0 0 2\r\nhi\r\nget ok\r\n")
	if !strings.Contains(got, "STORED") || !strings.Contains(got, "VALUE ok 0 2") {
		t.Fatalf("connection desynced after oversized set: %q", got)
	}
}

// TestSetBodiesSurviveArenaGrowth pipelines sets that outgrow the body arena
// mid-batch, twice over so the second batch reads over the first's arena,
// and reads every value back.
func TestSetBodiesSurviveArenaGrowth(t *testing.T) {
	s := startServer(t, Config{Backend: newTestBackend(t)})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	val := func(round, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + round), byte('0' + i)}, 100<<i)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			cl.QueueSet(fmt.Sprintf("k%d", i), 0, 0, val(round, i))
		}
		if _, err := cl.Exchange(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			cl.QueueGet(fmt.Sprintf("k%d", i), false)
		}
		rs, err := cl.Exchange()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if !r.Hit || !bytes.Equal(r.Value, val(round, i)) {
				t.Fatalf("round %d: k%d read back %d bytes (hit %v), want its %d", round, i, len(r.Value), r.Hit, len(val(round, i)))
			}
		}
	}
}

func TestPipelinedBatchFlushesOnce(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	b.put(t, "k", "v")

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck

	const pipelined = 32
	var req strings.Builder
	for i := 0; i < pipelined; i++ {
		req.WriteString("get k\r\n")
	}
	before := s.m.flushes.Load()
	got := rawOn(t, nc, req.String())
	if n := strings.Count(got, "END\r\n"); n != pipelined {
		t.Fatalf("got %d responses, want %d", n, pipelined)
	}
	flushes := s.m.flushes.Load() - before
	// One write from the client should be served as very few batches — the
	// whole point of flush-on-empty-read-buffer. TCP may split the request
	// across reads, so allow a little slack, but far below one per op.
	if flushes > pipelined/4 {
		t.Fatalf("%d flushes for %d pipelined ops; batching is broken", flushes, pipelined)
	}
}

// TestPipelinedLargeBodiesOneBatch pins that a batch is the client's
// pipeline: one write of eight 6 KiB sets, each followed by a get of its key,
// executes as one batch with one flush, although every body is longer than
// the command-line limit, and every get returns its set's bytes.
func TestPipelinedLargeBodiesOneBatch(t *testing.T) {
	s := startServer(t, Config{Backend: newTestBackend(t)})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck

	const pairs, size = 8, 6 << 10
	var req, want bytes.Buffer
	for i := 0; i < pairs; i++ {
		val := bytes.Repeat([]byte{byte('a' + i)}, size)
		fmt.Fprintf(&req, "set big%d 0 0 %d\r\n%s\r\nget big%d\r\n", i, size, val, i)
		fmt.Fprintf(&want, "STORED\r\nVALUE big%d 0 %d\r\n%s\r\nEND\r\n", i, size, val)
	}
	batches, flushes := s.m.batches.Load(), s.m.flushes.Load()
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := nc.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("responses differ from the sets' values")
	}
	if n := s.m.batches.Load() - batches; n != 1 {
		t.Errorf("one pipelined write ran as %d batches, want 1", n)
	}
	if n := s.m.flushes.Load() - flushes; n != 1 {
		t.Errorf("one pipelined write cost %d flushes, want 1", n)
	}
}

// getLine returns a get command of exactly n bytes, CRLF included.
func getLine(n int) string {
	var b strings.Builder
	b.WriteString("get")
	for rest := n - len("get\r\n"); rest > 0; {
		k := min(rest-1, 200)
		b.WriteByte(' ')
		b.WriteString(strings.Repeat("k", k))
		rest -= 1 + k
	}
	b.WriteString("\r\n")
	return b.String()
}

// TestLineLimit pins MaxLineBytes, CRLF included, now that the read buffer
// is larger than the default limit; a larger limit admits a line longer
// than that buffer.
func TestLineLimit(t *testing.T) {
	cases := []struct {
		name  string
		limit int
		n     int
		want  string
	}{
		{"4096 at the default limit", 0, 4096, "END\r\n"},
		{"4097 at the default limit", 0, 4097, "CLIENT_ERROR line too long\r\n"},
		{"20 KiB under a 32 KiB limit", 32 << 10, 20 << 10, "END\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, Config{Backend: newTestBackend(t), MaxLineBytes: tc.limit})
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close() //nolint:errcheck
			req := getLine(tc.n)
			if !strings.HasPrefix(tc.want, "CLIENT_ERROR") {
				req += "quit\r\n" // the server answers, then closes
			}
			nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			if _, err := nc.Write([]byte(req)); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(nc)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("a %d-byte line got %q, want %q", tc.n, got, tc.want)
			}
		})
	}
}

// scriptReader hands out one chunk per Read; a nil chunk reads as an
// expired read deadline.
type scriptReader [][]byte

func (r *scriptReader) Read(p []byte) (int, error) {
	if len(*r) == 0 {
		return 0, io.EOF
	}
	chunk := (*r)[0]
	*r = (*r)[1:]
	if chunk == nil {
		return 0, os.ErrDeadlineExceeded
	}
	return copy(p, chunk), nil
}

// TestLineLimitAcrossReadDeadline sends a line in two parts with a read
// deadline between them, so its first part waits in c.partial: the limit
// counts both parts.
func TestLineLimitAcrossReadDeadline(t *testing.T) {
	const limit, first = 4096, 2000
	for _, n := range []int{limit, limit + 1} {
		line := getLine(n)
		r := scriptReader{[]byte(line[:first]), nil, []byte(line[first:])}
		br := bufio.NewReaderSize(&r, readBufBytes)
		var c conn
		if _, err := c.readCommand(br, limit); !isTimeout(err) || len(c.partial) != first {
			t.Fatalf("%d bytes: first read = %v with %d bytes kept, want a timeout with %d", n, err, len(c.partial), first)
		}
		got, err := c.readCommand(br, limit)
		if n > limit {
			if err != errLineTooLong {
				t.Fatalf("%d bytes: err = %v, want errLineTooLong", n, err)
			}
			continue
		}
		if err != nil || string(got) != strings.TrimSuffix(line, "\r\n") {
			t.Fatalf("%d bytes: got %d bytes, %v; want the line", n, len(got), err)
		}
	}
}

func TestConnectionLimitBackpressure(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, MaxConns: 2})

	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close() //nolint:errcheck
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	if _, err := c1.Version(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Version(); err != nil {
		t.Fatal(err)
	}

	// A third connection is accepted by the kernel but not served: its
	// request gets no response while the limit holds.
	c3, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close() //nolint:errcheck
	c3.Timeout = 300 * time.Millisecond
	if _, err := c3.Version(); err == nil || !isTimeout(err) {
		t.Fatalf("third connection served beyond MaxConns (err=%v)", err)
	}

	// Freeing a slot lets it through.
	c1.Quit() //nolint:errcheck
	c3.Timeout = 2 * time.Second
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c3.Version(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("third connection never served after a slot freed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownDrainsInFlight is the losslessness contract: a
// pipelined batch already accepted when Shutdown begins is fully answered
// before the connection closes.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	b := newTestBackend(t)
	b.put(t, "k", "v")
	b.blockGet = make(chan struct{})
	b.getEntered = make(chan struct{}, 1)
	s := startServer(t, Config{Backend: b})

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck

	// An idle second connection must be closed by the drain, not hang it.
	idle, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close() //nolint:errcheck

	const pipelined = 10
	var req strings.Builder
	for i := 0; i < pipelined; i++ {
		req.WriteString("get k\r\n")
	}
	if _, err := nc.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	<-b.getEntered // the server is mid-request now

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Shutdown must not complete while a request is in flight.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(b.blockGet) // release the backend
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Every pipelined response arrived, then EOF.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 64<<10)
	var out []byte
	sawEOF := false
	for {
		n, err := nc.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			sawEOF = true
			break
		}
	}
	if !sawEOF {
		t.Fatal("connection not closed after drain")
	}
	if n := strings.Count(string(out), "END\r\n"); n != pipelined {
		t.Fatalf("drained connection got %d/%d responses:\n%q", n, pipelined, out)
	}

	// The idle connection was closed too.
	idle.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := idle.Read(buf); err == nil {
		t.Fatal("idle connection still open after Shutdown returned")
	}

	// And new connections cannot reach the server.
	if cl, err := Dial(s.Addr()); err == nil {
		cl.Timeout = 300 * time.Millisecond
		if _, verr := cl.Version(); verr == nil {
			t.Fatal("request served after Shutdown")
		}
		cl.Close() //nolint:errcheck
	}
}

func TestShutdownContextForceCloses(t *testing.T) {
	b := newTestBackend(t)
	b.put(t, "k", "v")
	b.blockGet = make(chan struct{})
	b.getEntered = make(chan struct{}, 1)
	defer close(b.blockGet) // unstick the handler after the test
	s := startServer(t, Config{Backend: b})

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	if _, err := nc.Write([]byte("get k\r\n")); err != nil {
		t.Fatal(err)
	}
	<-b.getEntered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
}

func TestSlowRequestTracing(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b, SlowThreshold: time.Nanosecond})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("x", 0, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if n := s.m.slowRequests.Load(); n != 1 {
		t.Fatalf("slow requests = %d, want 1 with a 1ns threshold", n)
	}
}

func TestMetricsRegistration(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("m", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Get("m"); err != nil || !r.Hit {
		t.Fatalf("Get = %+v, %v", r, err)
	}

	reg := obs.NewRegistry()
	s.MetricsInto(reg, obs.L("job", "cacheserver"))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`server_ops_total{job="cacheserver",verb="get"} 1`,
		`server_ops_total{job="cacheserver",verb="set"} 1`,
		`server_get_hits_total{job="cacheserver"} 1`,
		`server_connections_open{job="cacheserver"} 1`,
		"server_request_latency_count",
		"server_bytes_in_total",
		"server_flushes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}
