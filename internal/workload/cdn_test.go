package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"znscache/internal/sim"
)

func TestCDNSameSeedDeterminism(t *testing.T) {
	cfg := CDNConfig{Objects: 500, Seed: 42, DiurnalPeriod: 100}
	a, b := NewCDN(cfg), NewCDN(cfg)
	for i := 0; i < 5000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("op %d diverged: %+v vs %+v", i, x, y)
		}
	}
	// A different seed must produce a different stream.
	c := NewCDN(CDNConfig{Objects: 500, Seed: 43, DiurnalPeriod: 100})
	same := 0
	a2 := NewCDN(cfg)
	for i := 0; i < 1000; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("seeds 42 and 43 produced near-identical streams (%d/1000 equal)", same)
	}
}

func TestCDNOpInvariants(t *testing.T) {
	g := NewCDN(CDNConfig{Objects: 300, Seed: 7, DiurnalPeriod: 250})
	sizes := make(map[string]int64)
	ttls := make(map[string]time.Duration)
	ranges, fulls, dels := 0, 0, 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if !strings.HasPrefix(op.Key, "cdn-") {
			t.Fatalf("bad key %q", op.Key)
		}
		if op.Size < 32<<10 || op.Size > 2<<20 {
			t.Fatalf("size %d outside default bounds", op.Size)
		}
		// Size and TTL are stable properties of the key.
		if prev, ok := sizes[op.Key]; ok && prev != op.Size {
			t.Fatalf("key %q changed size %d -> %d", op.Key, prev, op.Size)
		}
		sizes[op.Key] = op.Size
		if op.Delete {
			dels++
			continue
		}
		if prev, ok := ttls[op.Key]; ok && prev != op.TTL {
			t.Fatalf("key %q changed TTL %v -> %v", op.Key, prev, op.TTL)
		}
		ttls[op.Key] = op.TTL
		if op.TTL < 2*time.Minute || op.TTL > 20*time.Minute {
			t.Fatalf("TTL %v outside default bounds", op.TTL)
		}
		if op.Off < 0 || op.Len < 0 || op.Off+op.Len > op.Size {
			t.Fatalf("range [%d,+%d) outside object of %d bytes", op.Off, op.Len, op.Size)
		}
		if op.Off == 0 && op.Len == op.Size {
			fulls++
		} else {
			ranges++
		}
	}
	if dels == 0 || ranges == 0 || fulls == 0 {
		t.Fatalf("mix degenerate: dels=%d ranges=%d fulls=%d", dels, ranges, fulls)
	}
	// Default RangePct=70: range reads should dominate but not monopolize.
	if ranges < fulls {
		t.Fatalf("expected range reads to dominate: ranges=%d fulls=%d", ranges, fulls)
	}
}

func TestCDNDiurnalShiftMovesHotSet(t *testing.T) {
	// With rotation every 500 ops, the most popular key must change as the
	// phase advances; without rotation it must not.
	count := func(period int64) int {
		g := NewCDN(CDNConfig{Objects: 1000, Seed: 3, DiurnalPeriod: period})
		leaders := make(map[string]bool)
		for w := 0; w < 8; w++ {
			freq := make(map[string]int)
			for i := 0; i < 500; i++ {
				op := g.Next()
				if !op.Delete {
					freq[op.Key]++
				}
			}
			best, bestN := "", 0
			for k, n := range freq {
				if n > bestN {
					best, bestN = k, n
				}
			}
			leaders[best] = true
		}
		return len(leaders)
	}
	if n := count(500); n < 2 {
		t.Fatalf("diurnal rotation never moved the hot key (windows saw %d leaders)", n)
	}
	if n := count(0); n != 1 {
		t.Fatalf("static popularity moved the hot key across windows (%d leaders)", n)
	}
}

func TestParetoSizes(t *testing.T) {
	d, err := ParseSizeDist("pareto:1.2:1024:1048576")
	if err != nil {
		t.Fatalf("ParseSizeDist: %v", err)
	}
	p := d.(ParetoSizes)
	if p.Alpha != 1.2 || p.Min != 1024 || p.Max != 1048576 {
		t.Fatalf("parsed %+v", p)
	}
	if d.MaxLen() != 1048576 {
		t.Fatalf("MaxLen = %d", d.MaxLen())
	}
	r := sim.NewRand(1)
	var sum float64
	small := 0
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.SampleLen(r)
		if v < 1024 || v > 1048576 {
			t.Fatalf("sample %d outside bounds", v)
		}
		sum += float64(v)
		if v < 8192 {
			small++
		}
	}
	// Heavy tail: most objects are small, yet the mean is far above the
	// median (for alpha=1.2 over [1k,1M] the mean lands around 5-6 KiB
	// with >75% of mass under 8 KiB).
	if frac := float64(small) / n; frac < 0.6 || frac > 0.95 {
		t.Fatalf("small-object fraction %.2f outside heavy-tail expectation", frac)
	}
	if mean := sum / n; mean < 3000 || mean > 20000 {
		t.Fatalf("mean %.0f outside expectation for alpha=1.2", mean)
	}

	// Spec round-trip.
	if d.String() != "pareto:1.2:1024:1048576" {
		t.Fatalf("String() = %q", d.String())
	}

	for _, bad := range []string{"pareto:0:1:2", "pareto:1.2:0:9", "pareto:1.2:10:5", "pareto:x", "uniform:1:2"} {
		if _, err := ParseSizeDist(bad); err == nil {
			t.Fatalf("ParseSizeDist(%q): want error", bad)
		}
	}
	if d, err := ParseSizeDist(""); d != nil || err != nil {
		t.Fatalf("empty spec: want (nil, nil)")
	}
}

func TestBCValueDist(t *testing.T) {
	bc := NewBC(BCConfig{Keys: 100, Seed: 1, ValueDist: ParetoSizes{Alpha: 1.2, Min: 100, Max: 999}})
	sawSet := false
	for i := 0; i < 1000; i++ {
		op := bc.Next()
		if op.Kind == OpSet {
			sawSet = true
			if op.ValLen < 100 || op.ValLen > 999 {
				t.Fatalf("set len %d outside dist bounds", op.ValLen)
			}
		}
	}
	if !sawSet {
		t.Fatalf("no sets generated")
	}
}

func TestCSVTraceFixtureRoundTrip(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "cdn_sample.csv"))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	tr := NewCSVTrace(f)
	var ops []Op
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("fixture parse: %v", err)
	}
	if len(ops) != 22 {
		t.Fatalf("fixture yielded %d ops, want 22", len(ops))
	}
	// Spot-check shape: first record, the delete, and a set.
	if ops[0] != (Op{Kind: OpGet, Key: "vid-0001-seg-00", ValLen: 524288}) {
		t.Fatalf("first op = %+v", ops[0])
	}
	gets, sets, dels := 0, 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpGet:
			gets++
		case OpSet:
			sets++
		case OpDelete:
			dels++
			if op.ValLen != 0 {
				t.Fatalf("delete carries a length: %+v", op)
			}
		}
	}
	if gets != 19 || sets != 2 || dels != 1 {
		t.Fatalf("mix = %d/%d/%d, want 19/2/1", gets, sets, dels)
	}
}

func TestCSVTraceParsing(t *testing.T) {
	in := "ts,key,size,op\n" +
		"1.5,k1,100,get\n" +
		"# comment\n" +
		"\n" +
		"2.5,k2,200,WRITE\n" +
		"3.5,k3,300\n" + // no op column: a read
		"4.5,k4,0,delete,extra,cols\n"
	tr := NewCSVTrace(strings.NewReader(in))
	want := []Op{
		{Kind: OpGet, Key: "k1", ValLen: 100},
		{Kind: OpSet, Key: "k2", ValLen: 200},
		{Kind: OpGet, Key: "k3", ValLen: 300},
		{Kind: OpDelete, Key: "k4"},
	}
	for i, w := range want {
		op, ok := tr.Next()
		if !ok {
			t.Fatalf("stream ended at op %d: %v", i, tr.Err())
		}
		if op != w {
			t.Fatalf("op %d = %+v, want %+v", i, op, w)
		}
	}
	if _, ok := tr.Next(); ok {
		t.Fatalf("stream yielded extra ops")
	}
	if tr.Err() != nil {
		t.Fatalf("clean stream errored: %v", tr.Err())
	}
	// Errors carry line numbers and kill the stream: csvtrace_test.go.
}
