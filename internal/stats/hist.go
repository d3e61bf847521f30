// Package stats provides the measurement plumbing the experiments report:
// log-bucketed latency histograms with percentile queries, operation
// counters, and write-amplification accounting. Every number printed by the
// harness (throughput, hit ratio, P50/P99 latency, WA factor) comes from
// this package.
package stats

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// histBuckets is the number of logarithmic buckets. With ~12% bucket growth
// starting at 1ns this spans beyond 1000s, enough for any simulated latency.
const (
	histBuckets = 256
	histGrowth  = 1.12
)

// bucketBounds[i] is the exclusive upper bound (in ns) of bucket i.
var bucketBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	v := 1.0
	for i := 0; i < histBuckets; i++ {
		b[i] = v
		v *= histGrowth
	}
	b[histBuckets-1] = math.Inf(1)
	return b
}()

// bucketFor returns the bucket holding d: the i with bucketBounds[i-1] ≤ ns
// < bucketBounds[i], found by binary search (no ns reaches the +Inf bound).
func bucketFor(d time.Duration) int {
	ns := float64(d)
	lo, hi := 0, histBuckets-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ns < bucketBounds[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Histogram is a concurrency-safe log-bucketed latency histogram.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.counts[bucketFor(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// ObserveN records n samples of the same latency under one lock acquisition.
// It is the batched form the serving layer uses when every request in a
// pipeline batch observes the batch's latency: one ObserveN per (batch, verb)
// instead of a lock round trip per request.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.counts[bucketFor(d)] += uint64(n)
	h.total += uint64(n)
	h.sum += d * time.Duration(n)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average sample, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Percentile returns the latency at quantile q in [0,1]. The value returned
// is the upper bound of the bucket containing the q-th sample, so it
// slightly overestimates; that bias is consistent across schemes and does
// not affect comparisons. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentileLocked(q)
}

// percentileLocked computes a quantile with h.mu held.
func (h *Histogram) percentileLocked(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == histBuckets-1 {
				return h.max
			}
			ub := time.Duration(bucketBounds[i])
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Snapshot returns an immutable copy of headline statistics. All fields are
// computed under one lock acquisition, so the snapshot is internally
// consistent even while other goroutines Observe concurrently: the
// percentiles, mean, and max all describe the same sample population (a
// per-field locking scheme could report a P99 above Max).
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Count: h.total,
		Sum:   h.sum,
		P50:   h.percentileLocked(0.50),
		P90:   h.percentileLocked(0.90),
		P99:   h.percentileLocked(0.99),
		P999:  h.percentileLocked(0.999),
	}
	if h.total > 0 {
		s.Mean = h.sum / time.Duration(h.total)
		s.Max = h.max
	}
	return s
}

// SnapshotAndReset atomically snapshots the histogram and clears it under
// one lock acquisition, so no concurrent Observe is lost between the read
// and the reset. It is the primitive an interval reporter uses to carve a
// continuous sample stream into disjoint windows.
func (h *Histogram) SnapshotAndReset() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Count: h.total,
		Sum:   h.sum,
		P50:   h.percentileLocked(0.50),
		P90:   h.percentileLocked(0.90),
		P99:   h.percentileLocked(0.99),
		P999:  h.percentileLocked(0.999),
	}
	if h.total > 0 {
		s.Mean = h.sum / time.Duration(h.total)
		s.Max = h.max
	}
	h.counts = [histBuckets]uint64{}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
	return s
}

// Merge folds all of other's samples into h. Bucket boundaries are shared by
// construction, so the merge is exact at histogram resolution: percentiles of
// the merged histogram equal percentiles over the union of the sample
// streams (within one bucket's width). It is the primitive the sharded cache
// frontend uses to report one latency distribution across per-shard engines.
// Merging a histogram into itself is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	// Copy out under other's lock first so the two locks never nest in an
	// order that could deadlock with a concurrent reverse merge.
	other.mu.Lock()
	counts := other.counts
	total := other.total
	sum := other.sum
	min, max := other.min, other.max
	other.mu.Unlock()
	if total == 0 {
		return
	}
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.total += total
	h.sum += sum
	if min < h.min {
		h.min = min
	}
	if max > h.max {
		h.max = max
	}
	h.mu.Unlock()
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts = [histBuckets]uint64{}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// HistSnapshot is a point-in-time summary of a Histogram.
type HistSnapshot struct {
	Count                     uint64
	Sum                       time.Duration
	Mean, P50, P90, P99, P999 time.Duration
	Max                       time.Duration
}

// String renders the snapshot in a compact single line.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.Max)
}
