package server

import (
	"context"
	"net"
	"testing"
	"time"
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

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzOneInput(t, srv, data) })
}

// fuzzServer serves a test backend holding "k", with timeouts short enough
// that a stalled input ends quickly.
func fuzzServer(f *testing.F) *Server {
	b := newTestBackend(f)
	b.put(f, "k", "v")
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
	return srv
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

// FuzzProto targets the batched parse/dispatch path: multi-key gets, pipelined mixed batches with read-after-write and
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

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzOneInput(t, srv, data) })
}
