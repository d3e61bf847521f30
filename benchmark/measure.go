package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is the host-clock side of a window edge: wall time, process CPU
// time (user+sys, every goroutine — the generator is included on purpose),
// allocator totals and the CPU the collector has used.
type hostSnap struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcCPU      float64 // seconds
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	s := hostSnap{
		cpu:        processCPU(),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUSample[0].Value.Float64()
	}
	s.wall = time.Now()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostDelta is what a window cost on the host clock.
type hostDelta struct {
	wall, cpu          time.Duration
	allocBytes, allocs uint64
	gcCPU              float64
}

func (a hostSnap) since(b hostSnap) hostDelta {
	return hostDelta{
		wall:       a.wall.Sub(b.wall),
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func (d *hostDelta) add(o hostDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocBytes += o.allocBytes
	d.allocs += o.allocs
	d.gcCPU += o.gcCPU
}

// settle runs a collection before a window opens, so every window starts at
// the same point of the collector's cycle (heap = live heap). Otherwise
// whether a cycle's CPU lands inside a 15 s window is a coin toss worth
// several per cent of cpu_us_per_op.
func settle() { runtime.GC() }

// liveHeapMiB is the heap still reachable after two forced collections (the
// second one frees what finalizers and the first sweep released): what the
// workload's state costs in DRAM, independent of when the collector last ran.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMiB reads the process high-water mark; informational only, it
// depends on collector timing.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kib, _ := strconv.ParseFloat(f[1], 64)
				return kib / 1024
			}
		}
	}
	return 0
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (no memory traffic, no calls): the
// yardstick that tells a slow run on a disturbed host from a slow program.
// It returns the best of five, in nanoseconds.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds())
}

// lats collects latency samples (nanoseconds) for exact quantiles.
type lats []int64

func (l *lats) add(d time.Duration) { *l = append(*l, int64(d)) }

// sorted sorts in place and returns the receiver for quantile queries.
func (l lats) sorted() lats {
	slices.Sort(l)
	return l
}

// q returns the nearest-rank quantile of a sorted sample, in microseconds.
func (l lats) q(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(p*float64(len(l))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i]) / 1e3
}

func (l lats) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var s float64
	for _, v := range l {
		s += float64(v)
	}
	return s / float64(len(l))
}

// median of v (v is sorted in place).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// ratio is a/b, 0 when b is 0 (a metric whose base did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
