package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkIndexFill prices the key index at scale: each op sets 2^20
// distinct 16-byte keys into a fresh engine, metadata-only, so the index,
// the key logs and the region table are all the engine holds. heapB/key is
// the live heap the filled engine holds per key, after a collection;
// ns/set is the time per Set. /readindex runs with Config.ReadIndex on
// (64 locked stripes), /plain with it off, as the replays run.
func BenchmarkIndexFill(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("idx-%012d", i)
	}
	for _, tc := range []struct {
		name string
		fast bool
	}{{"readindex", true}, {"plain", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var heap uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				c, err := New(Config{Store: newMemStore(64, 1<<20), ReadIndex: tc.fast})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, k := range keys {
					if err := c.Set(k, nil, 16); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				if c.Len() != n {
					b.Fatalf("engine holds %d keys, want %d", c.Len(), n)
				}
				heap = after.HeapAlloc - before.HeapAlloc
				runtime.KeepAlive(c)
				b.StartTimer()
			}
			b.ReportMetric(float64(heap)/n, "heapB/key")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/set")
		})
	}
}

// BenchmarkIndexGet prices one hit's index work: it fills 2^20 distinct
// 16-byte keys metadata-only, then looks them up in a fixed zipf order
// (s = 1.1 over the filled keys), so every lookup hits. /locked goes through
// Get with the read index off, as the replays run; /fast through TryFastGet
// with it on, as the serving layer runs. FIFO order keeps LRU bookkeeping and
// touch notes out of the price.
func BenchmarkIndexGet(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("idx-%012d", i)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, n-1)
	order := make([]string, 1<<16)
	for i := range order {
		order[i] = keys[z.Uint64()]
	}
	for _, tc := range []struct {
		name string
		fast bool
	}{{"locked", false}, {"fast", true}} {
		c, err := New(Config{Store: newMemStore(64, 1<<20), ReadIndex: tc.fast, Policy: FIFO})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := c.Set(k, nil, 16); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := order[i&(len(order)-1)]
				var found bool
				if tc.fast {
					_, found, _ = c.TryFastGet(k)
				} else {
					_, found, _ = c.Get(k)
				}
				if !found {
					b.Fatalf("%s missed", k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/get")
		})
	}
}
