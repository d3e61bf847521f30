package workload

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestTraceParsesAllOps checks every op alias the CSV trace accepts, and
// that a record without an op column is a read.
func TestTraceParsesAllOps(t *testing.T) {
	for _, tc := range []struct {
		op   string
		kind OpKind
	}{
		{",get", OpGet}, {",READ", OpGet}, {",1", OpGet}, {",", OpGet}, {"", OpGet},
		{",set", OpSet}, {",Write", OpSet}, {",put", OpSet}, {",add", OpSet}, {",2", OpSet},
		{",del", OpDelete}, {",DELETE", OpDelete}, {",remove", OpDelete}, {",3", OpDelete},
	} {
		want := Op{Kind: tc.kind, Key: "photo:1", ValLen: 64}
		if tc.kind == OpDelete {
			want.ValLen = 0
		}
		tr := NewCSVTrace(strings.NewReader("# excerpt\n\n7,photo:1,64" + tc.op + "\n"))
		if got, ok := tr.Next(); !ok || got != want {
			t.Errorf("op column %q: Next = %+v, %v (err %v), want %+v", tc.op, got, ok, tr.Err(), want)
		}
	}
}

// malformedAtLine3 parses a good record, a comment and then bad, and returns
// the error the bad record left; the stream must stop there.
func malformedAtLine3(t *testing.T, bad string) error {
	t.Helper()
	tr := NewCSVTrace(strings.NewReader("1,warm:1,10,get\n# comment\n" + bad + "\n"))
	_, good := tr.Next()
	if op, ok := tr.Next(); !good || ok || tr.Err() == nil {
		t.Fatalf("%q after a good record: good %v, then %+v, %v, err %v", bad, good, op, ok, tr.Err())
	}
	return tr.Err()
}

func TestTraceRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"2,k",                // too few fields
		"not-a-ts,k,100,get", // a header is only allowed on line 1
		"2, ,100,get",        // empty key
		"2,k,100,frobnicate", // unknown op
	} {
		malformedAtLine3(t, bad)
	}
}

// TestTraceOversizedLineCarriesLineNumber feeds a line beyond the scanner's
// 1 MiB token limit and asserts the error both names the failing line and
// unwraps to bufio.ErrTooLong.
func TestTraceOversizedLineCarriesLineNumber(t *testing.T) {
	giant := strings.Repeat("k", (1<<20)+64) // over the 1 MiB buffer
	tr := NewCSVTrace(strings.NewReader("1,ok:1,64,get\n2,ok:2,64,set\n3,giant:" + giant + ",64,set\n4,never,64,get\n"))
	_, ok1 := tr.Next()
	_, ok2 := tr.Next()
	if _, ok3 := tr.Next(); !ok1 || !ok2 || ok3 {
		t.Fatalf("good, good, oversized: ok %v, %v, %v (err %v)", ok1, ok2, ok3, tr.Err())
	}
	err := tr.Err()
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("Err = %v, want a wrapped bufio.ErrTooLong naming the failing line (3)", err)
	}
	// The error is sticky: further Next calls keep failing with it.
	if _, ok := tr.Next(); ok || tr.Err() != err {
		t.Fatalf("Next after the failure: ok %v, Err %v", ok, tr.Err())
	}
}

// TestTraceMalformedSetLengthCarriesLineNumber asserts parse errors name the
// exact line, for each malformed size spelling.
func TestTraceMalformedSetLengthCarriesLineNumber(t *testing.T) {
	for _, bad := range []string{"2,k,notanumber,set", "2,k,-5,set", "2,k,12x,set", "2,k,,set"} {
		if err := malformedAtLine3(t, bad); !strings.Contains(err.Error(), "trace line 3") {
			t.Fatalf("%q: Err = %q, want the failing line number (3)", bad, err)
		}
	}
}

func TestTraceSkipsCommentsAndBlanks(t *testing.T) {
	tr := NewCSVTrace(strings.NewReader("\n\n# only comments\n\n"))
	if op, ok := tr.Next(); ok || tr.Err() != nil || tr.Line() != 4 {
		t.Fatalf("comment-only trace: %+v, %v, err %v at line %d, want no op, no error at line 4", op, ok, tr.Err(), tr.Line())
	}
}
