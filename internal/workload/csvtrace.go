package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVTrace replays public cache traces in the wiki/Twitter-cluster CSV
// shape as an op stream, the one trace format cachebench -trace reads:
//
//	ts,key,size,op[,extra...]
//
// One record per line. ts is accepted and ignored (replay is paced by the
// simulation, not wall time); size is the object size in bytes (used as the
// set length or the get fill hint); op accepts the aliases common across
// published trace dumps (get/read/1 for reads, set/write/put/2 for writes,
// del/delete/3 for invalidations). A record with three fields is a read:
// several public dumps omit the op column entirely because everything is a
// request. A header line, blank lines, and '#' comments are skipped. Extra
// trailing columns (client id, TTL, ...) are tolerated.
type CSVTrace struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewCSVTrace wraps a reader. The reader is consumed lazily by Next.
func NewCSVTrace(r io.Reader) *CSVTrace {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &CSVTrace{sc: sc}
}

// Err returns the first parse or read error encountered.
func (t *CSVTrace) Err() error { return t.err }

// Line returns the number of lines consumed so far.
func (t *CSVTrace) Line() int { return t.line }

// Next returns the next operation; ok is false at end of stream or on the
// first error (check Err). After an error the stream is dead: every further
// Next returns false with the same error, so a scanner that hit ErrTooLong
// never serves its truncated buffer as a record.
func (t *CSVTrace) Next() (op Op, ok bool) {
	if t.err != nil {
		return Op{}, false
	}
	for t.sc.Scan() {
		t.line++
		text := strings.TrimSpace(t.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if t.line == 1 && looksLikeHeader(fields) {
			continue
		}
		parsed, err := parseCSVOp(fields)
		if err != nil {
			t.err = fmt.Errorf("csv trace line %d: %w", t.line, err)
			return Op{}, false
		}
		return parsed, true
	}
	if err := t.sc.Err(); err != nil && t.err == nil {
		t.err = fmt.Errorf("csv trace line %d: %w", t.line+1, err)
	}
	return Op{}, false
}

// looksLikeHeader reports whether the first record is a column-name header
// ("ts,key,size,op"): its timestamp column is not numeric.
func looksLikeHeader(fields []string) bool {
	if len(fields) == 0 {
		return false
	}
	_, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
	return err != nil
}

func parseCSVOp(fields []string) (Op, error) {
	if len(fields) < 3 {
		return Op{}, fmt.Errorf("want 'ts,key,size[,op]', got %d fields", len(fields))
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64); err != nil {
		return Op{}, fmt.Errorf("bad timestamp %q", fields[0])
	}
	key := strings.TrimSpace(fields[1])
	if key == "" {
		return Op{}, fmt.Errorf("empty key")
	}
	size, err := strconv.Atoi(strings.TrimSpace(fields[2]))
	if err != nil || size < 0 {
		return Op{}, fmt.Errorf("bad size %q", fields[2])
	}
	kind := OpGet
	if len(fields) >= 4 {
		switch strings.ToLower(strings.TrimSpace(fields[3])) {
		case "get", "read", "gets", "1", "":
			kind = OpGet
		case "set", "write", "put", "add", "2":
			kind = OpSet
		case "del", "delete", "remove", "3":
			kind = OpDelete
		default:
			return Op{}, fmt.Errorf("unknown op %q", fields[3])
		}
	}
	op := Op{Kind: kind, Key: key}
	if kind != OpDelete {
		op.ValLen = size
	}
	return op, nil
}
