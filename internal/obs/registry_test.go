package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"znscache/internal/stats"
)

func TestLPanicsOnOddCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L with odd argument count did not panic")
		}
	}()
	L("layer", "zns", "dangling")
}

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("empty labels rendered %q, want \"\"", got)
	}
	ls := L("layer", "zns", "zone", "3")
	if got, want := ls.String(), `{layer="zns",zone="3"}`; got != want {
		t.Fatalf("labels rendered %q, want %q", got, want)
	}
	esc := L("k", "a\\b\"c\nd").String()
	if want := `{k="a\\b\"c\nd"}`; esc != want {
		t.Fatalf("escaped labels rendered %q, want %q", esc, want)
	}
}

func TestLabelsWithDoesNotMutate(t *testing.T) {
	base := L("layer", "cache")
	a := base.With("shard", "0")
	b := base.With("shard", "1")
	if a.Get("shard") != "0" || b.Get("shard") != "1" {
		t.Fatalf("With produced aliased sets: %v, %v", a, b)
	}
	if len(base) != 1 {
		t.Fatalf("With mutated the base set: %v", base)
	}
}

func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	c.Add(7)
	r.Counter("ops_total", "ops", L("layer", "x"), &c)
	r.Gauge("depth", "queue depth", nil, func() float64 { return 2.5 })
	h := stats.NewHistogram()
	h.Observe(time.Millisecond)
	r.Histogram("lat_seconds", "latency", nil, h)

	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(samples))
	}
	if samples[0].Value != 7 || samples[0].Kind != KindCounter {
		t.Fatalf("counter sample = %+v", samples[0])
	}
	if samples[1].Value != 2.5 || samples[1].Kind != KindGauge {
		t.Fatalf("gauge sample = %+v", samples[1])
	}
	if samples[2].Hist.Count != 1 {
		t.Fatalf("histogram sample count = %d, want 1", samples[2].Hist.Count)
	}

	// The registry reads by reference: bumping the counter is visible on the
	// next gather without re-registration.
	c.Inc()
	if got := r.Gather()[0].Value; got != 8 {
		t.Fatalf("live counter read %v after Inc, want 8", got)
	}
}

func TestRegistryDuplicateReplaces(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("n", "", L("rig", "1"), func() uint64 { return 1 })
	r.CounterFunc("n", "", L("rig", "1"), func() uint64 { return 2 })
	r.CounterFunc("n", "", L("rig", "2"), func() uint64 { return 3 })
	if r.Len() != 2 {
		t.Fatalf("registry has %d series, want 2 (duplicate should replace)", r.Len())
	}
	if got := r.Gather()[0].Value; got != 2 {
		t.Fatalf("replaced series reads %v, want 2", got)
	}
}

func TestWriteAmpAndHitRatioComposites(t *testing.T) {
	r := NewRegistry()
	var wa stats.WriteAmp
	wa.AddHost(100)
	wa.AddMedia(150)
	r.WriteAmp("zns_wa", "write amplification", nil, &wa)
	var hr stats.HitRatio
	hr.Hit()
	hr.Hit()
	hr.Miss()
	r.HitRatio("cache_lookup", "lookups", nil, &hr)

	byName := map[string]float64{}
	for _, s := range r.Gather() {
		byName[s.Name] = s.Value
	}
	if byName["zns_wa_host_bytes_total"] != 100 || byName["zns_wa_media_bytes_total"] != 150 {
		t.Fatalf("write-amp counters = %v", byName)
	}
	if got := byName["zns_wa_factor"]; got != 1.5 {
		t.Fatalf("wa factor = %v, want 1.5", got)
	}
	if byName["cache_lookup_hits_total"] != 2 || byName["cache_lookup_misses_total"] != 1 {
		t.Fatalf("hit-ratio counters = %v", byName)
	}
	if got := byName["cache_lookup_ratio"]; got < 0.66 || got > 0.67 {
		t.Fatalf("hit ratio = %v, want ~2/3", got)
	}
}

// TestRegistryConcurrent exercises register/gather/exposition races under
// -race: sweeps register rebuilt rigs from a worker pool while a scraper
// reads.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	h := stats.NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("ops_total", "ops", L("rig", string(rune('a'+w))), &c)
				r.Histogram("lat_seconds", "latency", L("rig", string(rune('a'+w))), h)
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		r.Gather()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Errorf("WritePrometheus: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWritePrometheusGolden locks the text exposition format against
// testdata/metrics.prom: HELP/TYPE grouping, label rendering, summary
// quantiles in seconds.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	c.Add(42)
	r.Counter("zns_zone_resets_total", "Zone resets executed", L("scheme", "Zone-Cache", "zone", "0"), &c)
	r.CounterFunc("zns_zone_resets_total", "Zone resets executed", L("scheme", "Zone-Cache", "zone", "1"),
		func() uint64 { return 7 })
	r.Gauge("zns_open_zones", "Zones currently open", L("scheme", "Zone-Cache"), func() float64 { return 3 })
	h := stats.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	r.Histogram("cache_get_seconds", "Get latency", L("scheme", "Zone-Cache"), h)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the output below)\n%s", err, buf.String())
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s.\ngot:\n%s\nwant:\n%s", golden, buf.String(), want)
	}
}
