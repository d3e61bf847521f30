package server

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"testing"
)

// TestExchangeValuesLiveUntilNextExchange: one pipelined batch of 32 single
// gets plus a multiget reads every value into the client's arena. After
// Exchange returns, each value must still hold what was set — later bodies
// read into the same arena must not have overwritten earlier ones — and its
// cap must equal its len, so an append to one value cannot write over the
// next. A second batch reuses the arena and is served just as correctly.
func TestExchangeValuesLiveUntilNextExchange(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	want := func(i int) string { return fmt.Sprintf("value-%02d-%s", i, bytes.Repeat([]byte{'x'}, 7*i)) }
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	for i := 0; i < 32; i++ {
		if r, err := cl.Set(key(i), 0, 0, []byte(want(i))); err != nil || !r.Hit {
			t.Fatalf("Set(%s) = %+v, %v", key(i), r, err)
		}
	}
	multi := []int{3, 31, 3, 0}
	for round := 0; round < 2; round++ {
		var order []int // the key index behind each response
		for i := 0; i < 32; i++ {
			j := (i + 5*round) % 32
			cl.QueueGet(key(j), false)
			order = append(order, j)
		}
		var mk []string
		for _, j := range multi {
			mk = append(mk, key(j))
			order = append(order, j)
		}
		cl.QueueGetMulti(mk)
		rs, err := cl.Exchange()
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(order) {
			t.Fatalf("round %d: %d responses for %d requests", round, len(rs), len(order))
		}
		for n, r := range rs {
			if !r.Hit || string(r.Value) != want(order[n]) {
				t.Fatalf("round %d response %d (%s): hit=%v value=%q", round, n, key(order[n]), r.Hit, r.Value)
			}
			if cap(r.Value) != len(r.Value) {
				t.Fatalf("round %d response %d: cap %d != len %d", round, n, cap(r.Value), len(r.Value))
			}
		}
	}
}

// TestExchangeDropsLargeValueArena: a batch whose values outgrow the arena
// bound leaves no arena behind once it is answered, and its values stay
// intact; a batch of small values keeps a bounded arena for the next one.
func TestExchangeDropsLargeValueArena(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	big := bytes.Repeat([]byte{'b'}, 600<<10)
	for _, k := range []string{"big1", "big2"} {
		if r, err := cl.Set(k, 0, 0, big); err != nil || !r.Hit {
			t.Fatalf("Set(%s) = %+v, %v", k, r, err)
		}
	}
	if _, err := cl.Set("small", 0, 0, []byte("s")); err != nil {
		t.Fatal(err)
	}

	cl.QueueGetMulti([]string{"big1", "big2"})
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if cap(cl.vals) != 0 {
		t.Fatalf("client kept a %d-byte arena past the %d-byte bound", cap(cl.vals), maxValArena)
	}
	for i, r := range rs {
		if !r.Hit || !bytes.Equal(r.Value, big) {
			t.Fatalf("big value %d: hit=%v len=%d", i, r.Hit, len(r.Value))
		}
	}

	if r, err := cl.Get("small"); err != nil || string(r.Value) != "s" {
		t.Fatalf("Get(small) = %+v, %v", r, err)
	}
	if c := cap(cl.vals); c == 0 || c > maxValArena {
		t.Fatalf("arena cap after a small batch = %d, want kept and <= %d", c, maxValArena)
	}
}

// cannedPeer listens on loopback and answers every n request lines with
// resp, reading and writing through fixed buffers: a peer that allocates
// nothing per batch, so the client's own allocations can be counted. It
// returns the address; the peer exits when the client closes.
func cannedPeer(tb testing.TB, n int, resp []byte) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close() //nolint:errcheck
		buf := make([]byte, 64<<10)
		lines := 0
		for {
			m, err := nc.Read(buf)
			if err != nil {
				return
			}
			for _, c := range buf[:m] {
				if c == '\n' {
					lines++
				}
			}
			for ; lines >= n; lines -= n {
				if _, err := nc.Write(resp); err != nil {
					return
				}
			}
		}
	}()
	tb.Cleanup(func() {
		ln.Close() //nolint:errcheck
		<-done
	})
	return ln.Addr().String()
}

// hitBatch is one pipelined batch of depth single-key gets, each answered
// with a size-byte hit: the keys and the canned response stream.
func hitBatch(depth, size int) ([]string, []byte) {
	keys := make([]string, depth)
	var resp bytes.Buffer
	val := bytes.Repeat([]byte{'v'}, size)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%06d", i)
		fmt.Fprintf(&resp, "VALUE %s 0 %d\r\n%s\r\nEND\r\n", keys[i], size, val)
	}
	return keys, resp.Bytes()
}

// exchangeHits sends keys as one pipelined batch and checks every answer is
// a size-byte hit.
func exchangeHits(tb testing.TB, cl *Client, keys []string, size int) {
	for _, k := range keys {
		cl.QueueGet(k, false)
	}
	rs, err := cl.Exchange()
	if err != nil {
		tb.Fatal(err)
	}
	if len(rs) != len(keys) {
		tb.Fatalf("%d responses for %d gets", len(rs), len(keys))
	}
	for i, r := range rs {
		if !r.Hit || len(r.Value) != size {
			tb.Fatalf("response %d: hit=%v len=%d", i, r.Hit, len(r.Value))
		}
	}
}

// TestExchangeDoesNotAllocate: in steady state, a pipelined batch of 32
// 300-byte hits costs the client no allocation — requests, responses and
// values all land in buffers reused from the previous batch.
func TestExchangeDoesNotAllocate(t *testing.T) {
	keys, resp := hitBatch(32, 300)
	cl, err := Dial(cannedPeer(t, len(keys), resp))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	// The first batch sizes the reused buffers.
	exchangeHits(t, cl, keys, 300)
	allocs := testing.AllocsPerRun(100, func() { exchangeHits(t, cl, keys, 300) })
	if allocs != 0 {
		t.Fatalf("a batch of %d hits allocates %.1f objects per Exchange, want 0", len(keys), allocs)
	}
}

// BenchmarkClientExchange prices the client's side of one pipelined batch
// of 32 300-byte hits: queueing the gets, one write, and parsing the answers.
func BenchmarkClientExchange(b *testing.B) {
	keys, resp := hitBatch(32, 300)
	cl, err := Dial(cannedPeer(b, len(keys), resp))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	b.ReportAllocs()
	b.SetBytes(int64(len(resp)))
	for i := 0; i < b.N; i++ {
		exchangeHits(b, cl, keys, 300)
	}
}

// BenchmarkFieldsInto prices tokenizing a get command line and the VALUE
// line that answers it, the two lines every single-key hit parses.
func BenchmarkFieldsInto(b *testing.B) {
	get := []byte("get key:000042")
	value := []byte("VALUE key:000042 0 300")
	var fields [][]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fields = fieldsInto(fields[:0], get)
		fields = fieldsInto(fields[:0], value)
	}
	if len(fields) != 4 {
		b.Fatalf("VALUE line split into %d fields", len(fields))
	}
}
