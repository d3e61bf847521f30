package harness

import (
	"sync"
	"testing"
)

// The chunked-object crash oracle across schemes × seeds × repair modes:
// after a mid-write crash and restore, every object acknowledged at the
// snapshot cut is served whole or counted lost — never short, never spliced.
// Over the whole drill, objects that live wholly in their manifest (shorter
// than a chunk, and exactly one chunk) were acknowledged at the cut, and at
// least one crash fell between a multi-chunk put's chunk writes and its
// manifest write.
func TestBigObjCrashOracle(t *testing.T) {
	seeds := []uint64{1, 7, 23}
	var mu sync.Mutex
	var subChunk, oneChunk, midPut int
	t.Cleanup(func() { // runs once every parallel subtest is done
		if subChunk == 0 || oneChunk == 0 {
			t.Errorf("acknowledged at the cut: %d sub-chunk and %d one-chunk objects, want both > 0", subChunk, oneChunk)
		}
		if midPut == 0 {
			t.Error("no crash fell between a multi-chunk put's chunk writes and its manifest write")
		}
	})
	for _, scheme := range AllSchemes {
		for _, eager := range []bool{false, true} {
			for _, seed := range seeds {
				scheme, eager, seed := scheme, eager, seed
				name := scheme.String() + "/lazy/"
				if eager {
					name = scheme.String() + "/eager/"
				}
				t.Run(name+itoa(seed), func(t *testing.T) {
					t.Parallel()
					rep, err := RunBigObjCrash(BigObjCrashParams{
						CrashParams: CrashParams{Scheme: scheme, Seed: seed},
						EagerRepair: eager,
					})
					if err != nil {
						t.Fatalf("RunBigObjCrash: %v", err)
					}
					if !rep.Crashed {
						t.Fatalf("crash never fired (writes=%d)", rep.CrashWrites)
					}
					if err := rep.Err(); err != nil {
						t.Fatalf("oracle: %v (hits=%d lost=%d partial=%d repairs=%d)",
							err, rep.Hits, rep.Lost, rep.PartialFailures, rep.Repairs)
					}
					if rep.Hits+rep.Lost == 0 {
						t.Fatal("oracle replayed zero objects")
					}
					mu.Lock()
					subChunk += rep.SubChunkAcked
					oneChunk += rep.OneChunkAcked
					if rep.MidPutCrash {
						midPut++
					}
					mu.Unlock()
					if eager && rep.PartialFailures > 0 {
						// The eager sweep visits every snapshot key before the
						// replay, so no broken manifest should survive to fail
						// lazily.
						t.Errorf("eager repair left %d lazy partial failures", rep.PartialFailures)
					}
					t.Logf("scheme=%v seed=%d eager=%v hits=%d lost=%d partial=%d repairs=%d restoreDrops=%d subChunk=%d oneChunk=%d midPut=%v",
						scheme, seed, eager, rep.Hits, rep.Lost, rep.PartialFailures, rep.Repairs, rep.RestoreDrops,
						rep.SubChunkAcked, rep.OneChunkAcked, rep.MidPutCrash)
				})
			}
		}
	}
}

// Same params, same verdict: the crash run is fully seeded.
func TestBigObjCrashDeterminism(t *testing.T) {
	p := BigObjCrashParams{CrashParams: CrashParams{Scheme: RegionCache, Seed: 99}}
	a, err := RunBigObjCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBigObjCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("runs diverged:\n  %+v\n  %+v", *a, *b)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for v > 0 {
		p--
		b[p] = byte('0' + v%10)
		v /= 10
	}
	return string(b[p:])
}
