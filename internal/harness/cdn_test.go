package harness

import "testing"

func smallCDNParams() CDNParams {
	return CDNParams{
		Zones:      4,
		Objects:    300,
		WarmupOps:  200,
		MeasureOps: 400,
		Seed:       42,
		ChunkSizes: []int{64 << 10, 256 << 10},
		Schemes:    []Scheme{RegionCache, ZoneCache},
	}
}

func TestRunCDNSmoke(t *testing.T) {
	p := smallCDNParams()
	rows, err := RunCDN(p)
	if err != nil {
		t.Fatalf("RunCDN: %v", err)
	}
	if want := len(p.Schemes) * len(p.ChunkSizes); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Ops != p.MeasureOps {
			t.Errorf("%v chunk=%d: Ops = %d, want %d", r.Scheme, r.ChunkBytes, r.Ops, p.MeasureOps)
		}
		// The read-through loop's accounting invariant: every read is
		// either served from cache or becomes a fill.
		if r.Reads != r.ObjectHits+r.Fills {
			t.Errorf("%v chunk=%d: reads=%d != hits=%d + fills=%d",
				r.Scheme, r.ChunkBytes, r.Reads, r.ObjectHits, r.Fills)
		}
		if r.Reads+r.Deletes != r.Ops {
			t.Errorf("%v chunk=%d: reads=%d + deletes=%d != ops=%d",
				r.Scheme, r.ChunkBytes, r.Reads, r.Deletes, r.Ops)
		}
		if r.Reads == 0 || r.Fills == 0 {
			t.Errorf("%v chunk=%d: degenerate window (reads=%d fills=%d)",
				r.Scheme, r.ChunkBytes, r.Reads, r.Fills)
		}
		if ratio := r.ObjectHitRatio; ratio < 0 || ratio > 1 {
			t.Errorf("%v chunk=%d: hit ratio %v out of range", r.Scheme, r.ChunkBytes, ratio)
		}
		if r.ServedBytes == 0 || r.FillBytes == 0 {
			t.Errorf("%v chunk=%d: no bytes moved (served=%d filled=%d)",
				r.Scheme, r.ChunkBytes, r.ServedBytes, r.FillBytes)
		}
		if r.OpsPerSec <= 0 {
			t.Errorf("%v chunk=%d: OpsPerSec = %v", r.Scheme, r.ChunkBytes, r.OpsPerSec)
		}
		if r.WAFactor < 1 {
			t.Errorf("%v chunk=%d: WAFactor = %v < 1", r.Scheme, r.ChunkBytes, r.WAFactor)
		}
	}
}

func TestRunCDNDeterminism(t *testing.T) {
	p := smallCDNParams()
	p.Schemes = []Scheme{RegionCache}
	p.ChunkSizes = []int{128 << 10}
	a, err := RunCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("runs diverged:\n  %+v\n  %+v", a, b)
	}
}

func TestCDNReportRoundTrip(t *testing.T) {
	p := smallCDNParams()
	p.Schemes = []Scheme{RegionCache}
	rows, err := RunCDN(p)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, &Report{Experiment: "cdn", CDN: rows})
	if len(back.CDN) != len(rows) {
		t.Fatalf("round-trip rows = %d, want %d", len(back.CDN), len(rows))
	}
	for i, r := range back.CDN {
		if r.Reads != r.ObjectHits+r.Fills {
			t.Errorf("row %d: wire accounting broken: reads=%d hits=%d fills=%d",
				i, r.Reads, r.ObjectHits, r.Fills)
		}
	}
}
