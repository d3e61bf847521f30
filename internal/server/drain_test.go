package server

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// TestQuitMidBatchFlushesQueuedReplies pins the drain-vs-pipeline contract:
// a pipelined batch terminated by quit, with Shutdown racing the batch
// mid-execBatch (the backend Get is parked), must still flush every queued
// reply before the connection closes. The draining check in serveConn sits
// after flushResp — this test keeps it there.
func TestQuitMidBatchFlushesQueuedReplies(t *testing.T) {
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

	// One write: a pipelined run of gets ending in quit. The server parses
	// them all, and the quit closes the batch — execBatch parks on the first
	// blocked Get with every reply still owed.
	const pipelined = 8
	var req strings.Builder
	for i := 0; i < pipelined; i++ {
		req.WriteString("get k\r\n")
	}
	req.WriteString("quit\r\n")
	if _, err := nc.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	<-b.getEntered // mid-execBatch now

	// Race a graceful drain against the in-flight batch.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with the batch mid-exec", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(b.blockGet)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// All queued replies arrived before the close, none dropped.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 64<<10)
	var out []byte
	sawEOF := false
	for {
		n, rerr := nc.Read(buf)
		out = append(out, buf[:n]...)
		if rerr != nil {
			sawEOF = true
			break
		}
	}
	if !sawEOF {
		t.Fatal("connection not closed after quit + drain")
	}
	if n := strings.Count(string(out), "END\r\n"); n != pipelined {
		t.Fatalf("quit-terminated batch got %d/%d replies before close:\n%q", n, pipelined, out)
	}
}
