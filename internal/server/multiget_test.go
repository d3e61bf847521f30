package server

import (
	"errors"
	"strings"
	"testing"
)

// TestMultiGetMidStreamErrorMarksUnresolved covers the truncation case: the
// server renders hits in request order and cuts the response at the first
// backend error, so a requested key skipped before the cut (a presumed miss)
// is in fact unresolved. Every key without a VALUE block must carry the
// error — a zero-value Resp would be indistinguishable from a true miss.
func TestMultiGetMidStreamErrorMarksUnresolved(t *testing.T) {
	b := newTestBackend(t)
	b.failKeys = map[string]error{"k3": errors.New("disk on fire")}
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	for _, k := range []string{"k2", "k4"} {
		if _, err := cl.Set(k, 0, 0, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	// k1 misses (skipped before the cut), k2 hits, k3 errors (the cut), k4
	// is never reached.
	cl.QueueGetMulti([]string{"k1", "k2", "k3", "k4"})
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d responses, want 4", len(rs))
	}
	if !rs[1].Hit || string(rs[1].Value) != "v-k2" {
		t.Fatalf("k2 = %+v, want hit", rs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if rs[i].Hit {
			t.Fatalf("rs[%d] = %+v, want unresolved", i, rs[i])
		}
		if !strings.Contains(rs[i].Err, "SERVER_ERROR") {
			t.Fatalf("rs[%d].Err = %q, want the SERVER_ERROR line (unresolved, not a miss)", i, rs[i].Err)
		}
	}

	// The connection survives the truncated response: an END-terminated
	// multiget afterwards resolves cleanly, misses with empty Err.
	cl.QueueGetMulti([]string{"k1", "k2"})
	rs, err = cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Hit || rs[0].Err != "" {
		t.Fatalf("k1 after clean END = %+v, want plain miss", rs[0])
	}
	if !rs[1].Hit {
		t.Fatalf("k2 after clean END = %+v, want hit", rs[1])
	}
}

// TestMultiGetDuplicateKeys requests the same key several times in one
// multiget: the server renders one VALUE block per occurrence, and the
// client's in-order matcher must land each block on its own slot — including
// duplicates separated by a missing key.
func TestMultiGetDuplicateKeys(t *testing.T) {
	b := newTestBackend(t)
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("k1", 3, 0, []byte("dup")); err != nil {
		t.Fatal(err)
	}

	cl.QueueGetMulti([]string{"k1", "k1"})
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if !rs[i].Hit || string(rs[i].Value) != "dup" || rs[i].Flags != 3 {
			t.Fatalf("dup rs[%d] = %+v", i, rs[i])
		}
	}

	// A miss between the duplicates: the skip loop must pass over it and
	// still match the second occurrence.
	cl.QueueGetMulti([]string{"k1", "missing", "k1"})
	rs, err = cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Hit || !rs[2].Hit {
		t.Fatalf("duplicates around a miss = %+v / %+v, want both hits", rs[0], rs[2])
	}
	if rs[1].Hit || rs[1].Err != "" {
		t.Fatalf("middle miss = %+v, want plain miss", rs[1])
	}
}

// TestMultiGetDuplicateKeysWithError mixes duplicates with a truncating
// error: the duplicate occurrence after the cut is unresolved even though an
// earlier occurrence of the same key was answered.
func TestMultiGetDuplicateKeysWithError(t *testing.T) {
	b := newTestBackend(t)
	b.failKeys = map[string]error{"kerr": errors.New("bad sector")}
	s := startServer(t, Config{Backend: b})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Set("k1", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}

	cl.QueueGetMulti([]string{"k1", "kerr", "k1"})
	rs, err := cl.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Hit {
		t.Fatalf("first occurrence = %+v, want hit (answered before the cut)", rs[0])
	}
	for _, i := range []int{1, 2} {
		if rs[i].Hit || !strings.Contains(rs[i].Err, "SERVER_ERROR") {
			t.Fatalf("rs[%d] = %+v, want unresolved with the error", i, rs[i])
		}
	}
}
