package bigobj_test

import (
	"bytes"
	"runtime"
	"testing"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/harness"
)

// sealedObjChunk is the chunk size of the sealed-object fixture: replay_cdn's.
const sealedObjChunk = 128 << 10

// sealedObject stores a 1 MiB object in 128 KiB chunks over a Region-Cache
// rig of 1 MiB regions, tracking values, and seals every region, so each
// chunk fetch is a checksum-verified device read through the engine.
func sealedObject(tb testing.TB, fp fetchPath) (*bigobj.Store, []byte) {
	tb.Helper()
	hw := harness.DefaultHW(6)
	rig, err := harness.Build(harness.RigConfig{
		Scheme:      harness.RegionCache,
		HW:          hw,
		CacheBytes:  4 * hw.ZoneBytes(),
		RegionBytes: 1 << 20,
		TrackValues: true,
		Admission:   cache.AdmitAll{},
	})
	if err != nil {
		tb.Fatalf("build rig: %v", err)
	}
	st, err := bigobj.New(bigobj.Config{Backend: fp.wrap(rig.Engine), ChunkSize: sealedObjChunk, Clock: rig.Clock})
	if err != nil {
		tb.Fatalf("bigobj.New: %v", err)
	}
	obj := pattern(5, 1<<20)
	if err := st.Put("obj", bytes.NewReader(obj), 0); err != nil {
		tb.Fatalf("Put: %v", err)
	}
	if err := rig.Engine.SealOpen(); err != nil {
		tb.Fatalf("SealOpen: %v", err)
	}
	return st, obj
}

// TestWholeObjectReadAllocatesLessThanAChunk: once warm, reading a sealed
// 1 MiB object whole over the engine's GetBuf lands every chunk in a recycled
// buffer — what is left to allocate is per-call bookkeeping (reader, pins,
// chunk keys), not chunk bytes. Over Get the same read allocates a private
// copy of every chunk, eight times this bound.
func TestWholeObjectReadAllocatesLessThanAChunk(t *testing.T) {
	st, obj := sealedObject(t, fetchPaths[0])
	got := make([]byte, len(obj))
	read := func() {
		if n, err := st.ReadAt("obj", got, 0); err != nil || n != len(obj) {
			t.Fatalf("ReadAt = (%d, %v)", n, err)
		}
	}
	read() // warm-up: the first fetch allocates the buffer the rest recycle
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, obj) {
		t.Fatal("whole-object read returned wrong bytes")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= sealedObjChunk {
		t.Fatalf("whole-object read allocated %d bytes, want < %d (one chunk)", d, sealedObjChunk)
	}
}

// BenchmarkRangeRead reads a sealed 1 MiB object whole per iteration, over
// each fetch path: GetBuf into recycled buffers, and Get's private copies.
func BenchmarkRangeRead(b *testing.B) {
	for _, fp := range fetchPaths {
		b.Run(fp.name, func(b *testing.B) {
			st, obj := sealedObject(b, fp)
			got := make([]byte, len(obj))
			b.SetBytes(int64(len(obj)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := st.ReadAt("obj", got, 0); err != nil || n != len(obj) {
					b.Fatalf("ReadAt = (%d, %v)", n, err)
				}
			}
		})
	}
}
