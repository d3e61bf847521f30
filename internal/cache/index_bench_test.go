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
// the live heap the filled engine holds per live key, after a collection;
// ns/set is the time per Set (or Delete). /readindex runs with Config.ReadIndex on
// (64 locked stripes), /plain with it off, as the replays run. The /churn
// variants then run 2^20 more ops over the same keys in a fixed random
// order, three overwrites to one delete, so regions fill with dead keys and
// the oldest are evicted: their heapB/key prices what the key logs keep
// beside the live keys.
func BenchmarkIndexFill(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("idx-%012d", i)
	}
	rng := rand.New(rand.NewSource(1))
	churn := make([]int32, n) // key index; negative: delete key ^i
	for i := range churn {
		k := rng.Int31n(n)
		if rng.Intn(4) == 0 {
			k = ^k
		}
		churn[i] = k
	}
	for _, tc := range []struct {
		name        string
		fast, churn bool
	}{{"readindex", true, false}, {"plain", false, false}, {"churn/readindex", true, true}, {"churn/plain", false, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var heap uint64
			var live int
			ops := n
			if tc.churn {
				ops += len(churn)
			}
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
				if tc.churn {
					for _, k := range churn {
						if k < 0 {
							c.Delete(keys[^k])
						} else if err := c.Set(keys[k], nil, 16); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				if live = c.Len(); !tc.churn && live != n {
					b.Fatalf("engine holds %d keys, want %d", live, n)
				}
				heap = after.HeapAlloc - before.HeapAlloc
				runtime.KeepAlive(c)
				b.StartTimer()
			}
			b.ReportMetric(float64(heap)/float64(live), "heapB/key")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/set")
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
