package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.Mean() != 100*time.Microsecond {
		t.Fatalf("Mean = %v, want 100µs", h.Mean())
	}
	p50 := h.Percentile(0.5)
	if p50 < 100*time.Microsecond || p50 > 120*time.Microsecond {
		t.Fatalf("P50 = %v, want ~100µs (within one bucket)", p50)
	}
}

func TestHistogramPercentileOrdering(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p90, p99 := h.Percentile(0.5), h.Percentile(0.9), h.Percentile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("percentiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// P50 of 1..1000µs should be near 500µs (bucketing overestimates ≤12%).
	if p50 < 450*time.Microsecond || p50 > 620*time.Microsecond {
		t.Fatalf("P50 = %v, want ~500µs", p50)
	}
	if p99 < 900*time.Microsecond {
		t.Fatalf("P99 = %v, want ≥900µs", p99)
	}
}

func TestHistogramTailDominatedByOutliers(t *testing.T) {
	// Models GC stalls: 99 fast ops, 1 slow op. P99 must expose the stall.
	h := NewHistogram()
	for i := 0; i < 980; i++ {
		h.Observe(50 * time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		h.Observe(20 * time.Millisecond)
	}
	if p50 := h.Percentile(0.5); p50 > 100*time.Microsecond {
		t.Fatalf("P50 = %v, want fast-path latency", p50)
	}
	if p99 := h.Percentile(0.99); p99 < 10*time.Millisecond {
		t.Fatalf("P99 = %v, want stall latency ≥10ms", p99)
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Observe(3 * time.Millisecond)
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if h.Min() != time.Millisecond {
		t.Fatalf("Min = %v, want 1ms", h.Min())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("Max = %v, want 3ms", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatal("negative samples should be clamped to zero")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestHistogramPercentileNeverExceedsMax(t *testing.T) {
	if err := quick.Check(func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		var max time.Duration
		for _, s := range samples {
			d := time.Duration(s)
			h.Observe(d)
			if d > max {
				max = d
			}
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if h.Percentile(q) > max {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestHistogramSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.String() == "" {
		t.Fatal("snapshot incomplete")
	}
}

func TestBucketForMonotone(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{0, 1, 2, 10, 100, 1000, 1e6, 1e9, 1e12} {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor not monotone at %v: %d < %d", d, b, prev)
		}
		prev = b
	}
}

// refBucketFor is bucketFor's former formula: a logarithm, then fix-ups
// against the bounds. bucketFor must agree with it everywhere.
func refBucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= 0 {
		return 0
	}
	i := min(max(int(math.Log(ns)/math.Log(histGrowth))+1, 0), histBuckets-1)
	for i > 0 && ns < bucketBounds[i-1] {
		i--
	}
	for i < histBuckets-1 && ns >= bucketBounds[i] {
		i++
	}
	return i
}

// TestBucketForMatchesLogFormula compares bucketFor with the logarithmic
// reference at every bound ±1ns and over a seeded log-uniform sweep.
func TestBucketForMatchesLogFormula(t *testing.T) {
	ds := []time.Duration{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for _, b := range bucketBounds[:histBuckets-1] {
		for _, ns := range []float64{math.Floor(b), math.Ceil(b)} {
			ds = append(ds, time.Duration(ns)-1, time.Duration(ns), time.Duration(ns)+1)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		ds = append(ds, time.Duration(math.Exp(r.Float64()*40)))
	}
	for _, d := range ds {
		if got, want := bucketFor(d), refBucketFor(d); got != want {
			t.Fatalf("bucketFor(%d) = %d, log formula says %d", int64(d), got, want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 16000 {
		t.Fatalf("Counter = %d, want 16000", c.Load())
	}
}

func TestWriteAmpNeutralWhenEmpty(t *testing.T) {
	var w WriteAmp
	if w.Factor() != 1 {
		t.Fatalf("empty WA factor = %v, want 1", w.Factor())
	}
}

func TestWriteAmpFactor(t *testing.T) {
	var w WriteAmp
	w.AddHost(100)
	w.AddMedia(139)
	if got := w.Factor(); got != 1.39 {
		t.Fatalf("WA factor = %v, want 1.39", got)
	}
	if w.Host() != 100 || w.Media() != 139 {
		t.Fatal("byte counts wrong")
	}
	w.Reset()
	if w.Factor() != 1 {
		t.Fatal("Reset did not clear WA")
	}
}

func TestWriteAmpNeverBelowOneForLogStructured(t *testing.T) {
	// Property: if media >= host (true for any log-structured layer that
	// writes at least what the client asked), factor >= 1.
	if err := quick.Check(func(host uint32, extra uint32) bool {
		var w WriteAmp
		w.AddHost(uint64(host))
		w.AddMedia(uint64(host) + uint64(extra))
		return w.Factor() >= 1 || host == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHitRatio(t *testing.T) {
	var h HitRatio
	if h.Ratio() != 0 {
		t.Fatal("empty hit ratio should be 0")
	}
	for i := 0; i < 94; i++ {
		h.Hit()
	}
	for i := 0; i < 6; i++ {
		h.Miss()
	}
	if got := h.Ratio(); got != 0.94 {
		t.Fatalf("hit ratio = %v, want 0.94", got)
	}
	if h.Hits() != 94 || h.Misses() != 6 {
		t.Fatal("hit/miss counts wrong")
	}
	h.Reset()
	if h.Ratio() != 0 {
		t.Fatal("Reset did not clear hit ratio")
	}
}

func TestHistogramMergeUnion(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	union := NewHistogram()
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Microsecond
		a.Observe(d)
		union.Observe(d)
	}
	for i := 1; i <= 50; i++ {
		d := time.Duration(i) * time.Millisecond
		b.Observe(d)
		union.Observe(d)
	}
	a.Merge(b)
	if a.Count() != union.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), union.Count())
	}
	if a.Mean() != union.Mean() {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), union.Mean())
	}
	if a.Min() != union.Min() || a.Max() != union.Max() {
		t.Fatalf("merged min/max = %v/%v, want %v/%v",
			a.Min(), a.Max(), union.Min(), union.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Percentile(q), union.Percentile(q); got != want {
			t.Fatalf("merged P%.0f = %v, want %v (merge must equal observing the union)",
				q*100, got, want)
		}
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Merge(nil)            // no-op
	h.Merge(h)              // self-merge: no-op, no deadlock
	h.Merge(NewHistogram()) // empty other: no-op, min must not be clobbered
	if h.Count() != 1 || h.Min() != time.Millisecond || h.Max() != time.Millisecond {
		t.Fatalf("edge-case merges changed the histogram: n=%d min=%v max=%v",
			h.Count(), h.Min(), h.Max())
	}
	// Merging into an empty histogram adopts the other's min.
	e := NewHistogram()
	e.Merge(h)
	if e.Count() != 1 || e.Min() != time.Millisecond {
		t.Fatalf("empty.Merge: n=%d min=%v", e.Count(), e.Min())
	}
}

func TestHistogramMergeConcurrent(t *testing.T) {
	shards := make([]*Histogram, 8)
	for i := range shards {
		shards[i] = NewHistogram()
		for j := 0; j < 1000; j++ {
			shards[i].Observe(time.Duration(i*1000+j) * time.Nanosecond)
		}
	}
	// Merge all shards into one sink from concurrent goroutines (the
	// sharded frontend's Stats does this under shard locks; the histogram
	// itself must tolerate it).
	sink := NewHistogram()
	var wg sync.WaitGroup
	for _, h := range shards {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			sink.Merge(h)
		}(h)
	}
	wg.Wait()
	if sink.Count() != 8000 {
		t.Fatalf("concurrent merge lost samples: %d", sink.Count())
	}
}

// TestHistogramSnapshotConsistent verifies that Snapshot is computed under a
// single lock acquisition: while writers observe a fixed value concurrently,
// every snapshot's fields must describe one sample population — mean derived
// from the snapshot's own sum and count, and percentiles never above max.
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := NewHistogram()
	const val = 250 * time.Microsecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(val)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if want := s.Sum / time.Duration(s.Count); s.Mean != want {
			t.Fatalf("torn snapshot: mean %v but sum/count = %v (%+v)", s.Mean, want, s)
		}
		if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 {
			t.Fatalf("torn snapshot: percentiles not monotone: %+v", s)
		}
		if s.P999 > s.Max {
			t.Fatalf("torn snapshot: P999 %v above max %v", s.P999, s.Max)
		}
	}
	close(stop)
	wg.Wait()
}
