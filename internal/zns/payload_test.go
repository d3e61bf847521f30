package zns

import (
	"bytes"
	"testing"

	"znscache/internal/device"
)

// payloadConfig is testConfig with four 1 MiB zones, each four 256 KiB
// payload segments long, so zone I/O can cross segment boundaries.
func payloadConfig() Config {
	cfg := testConfig()
	cfg.BlocksPerZone = 16
	return cfg
}

// sectorPattern returns n bytes in which every sector is distinct, so bytes
// read from the wrong offset cannot pass for the right ones.
func sectorPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i/device.SectorSize)*7 + byte(i)
	}
	return b
}

// recycledDevice returns a payload device whose zone 0 was filled with 0xEE
// and reset, so its segments sit in the pool holding stale bytes that the
// next writes of the zone take back.
func recycledDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(payloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	zs := int(d.ZoneSize())
	if _, err := d.Write(0, bytes.Repeat([]byte{0xEE}, zs), zs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reset(0, 0); err != nil {
		t.Fatal(err)
	}
	return d
}

// readZone reads [0, n) of zone 0.
func readZone(t *testing.T, d *Device, n int64) []byte {
	t.Helper()
	got := make([]byte, n)
	if _, err := d.Read(0, got, 0); err != nil {
		t.Fatalf("read [0,%d): %v", n, err)
	}
	return got
}

// TestPayloadCrossesSegments writes a zone in runs that start and end off
// the segment boundaries (and two that cross one), then reads windows that
// straddle every boundary.
func TestPayloadCrossesSegments(t *testing.T) {
	d, err := New(payloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	const sectors = 256 // one zone: boundaries at sectors 64, 128 and 192
	want := sectorPattern(sectors*device.SectorSize, 1)
	var wp int
	for _, run := range []int{3, 61, 1, 70, 5, 116} {
		chunk := want[wp*device.SectorSize : (wp+run)*device.SectorSize]
		if _, err := d.Write(0, chunk, len(chunk), int64(wp)*device.SectorSize); err != nil {
			t.Fatalf("write %d sectors at sector %d: %v", run, wp, err)
		}
		wp += run
	}
	for _, w := range [][2]int{{0, sectors}, {60, 70}, {127, 129}, {63, 193}, {191, 256}} {
		got := make([]byte, (w[1]-w[0])*device.SectorSize)
		if _, err := d.Read(0, got, int64(w[0])*device.SectorSize); err != nil {
			t.Fatalf("read sectors [%d,%d): %v", w[0], w[1], err)
		}
		if !bytes.Equal(got, want[w[0]*device.SectorSize:w[1]*device.SectorSize]) {
			t.Errorf("sectors [%d,%d) read back wrong bytes", w[0], w[1])
		}
	}
}

// TestPayloadAppendsFillSegmentPiecemeal appends one sector at a time, as
// f2fs does, over a recycled zone: the first sector of every segment is a
// metadata-only write, so each segment is taken from the pool by the write
// after it and must zero the head it missed. The written prefix is read
// back after every append.
func TestPayloadAppendsFillSegmentPiecemeal(t *testing.T) {
	d := recycledDevice(t)
	const sectors = 150 // two segments and part of a third
	want := make([]byte, sectors*device.SectorSize)
	for i := 0; i < sectors; i++ {
		off := i * device.SectorSize
		var data []byte
		if i%8 != 0 {
			data = sectorPattern(device.SectorSize, byte(i))
			copy(want[off:], data)
		}
		if _, err := d.Write(0, data, device.SectorSize, int64(off)); err != nil {
			t.Fatalf("append sector %d: %v", i, err)
		}
		if got := readZone(t, d, int64(off+device.SectorSize)); !bytes.Equal(got, want[:len(got)]) {
			t.Fatalf("after appending sector %d the zone reads back wrong bytes", i)
		}
	}
}

// TestPayloadRecycledZoneReadsZeros: after a zone is reset and rewritten,
// what was written without payload reads as zeros, never as the stale bytes
// of the segment the write took from the pool.
func TestPayloadRecycledZoneReadsZeros(t *testing.T) {
	head := bytes.Repeat([]byte{0xAB}, device.SectorSize)
	for _, tc := range []struct {
		name string
		// fill writes past head and returns how many bytes of zone 0 to
		// read back.
		fill func(d *Device) (int64, error)
	}{
		{"finish tail", func(d *Device) (int64, error) {
			_, err := d.Finish(0, 0)
			return d.ZoneSize(), err
		}},
		{"nil-data write", func(d *Device) (int64, error) {
			_, err := d.Write(0, nil, 3*device.SectorSize, device.SectorSize)
			return 4 * device.SectorSize, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := recycledDevice(t)
			if _, err := d.Write(0, head, len(head), 0); err != nil {
				t.Fatal(err)
			}
			n, err := tc.fill(d)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			copy(want, head)
			if got := readZone(t, d, n); !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("byte %d reads %#x, want %#x", i, got[i], want[i])
			}
		})
	}
}

// TestPayloadKeptOutlivesReset: Keep takes a buffer that is exactly one
// empty payload segment as that segment and copies any other write, and a
// failed write keeps nothing. A kept buffer's bytes stay as they were while
// its zone is reset and rewritten under a goroutine that reads them.
func TestPayloadKeptOutlivesReset(t *testing.T) {
	d, err := New(payloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	const seg = 256 << 10
	buf := sectorPattern(seg, 3)
	want := bytes.Clone(buf)
	if _, kept, err := d.Keep(0, buf, seg); err == nil || kept {
		t.Fatalf("Keep past the write pointer = (kept %v, %v), want an error", kept, err)
	}
	if _, kept, err := d.Keep(0, buf[:8*device.SectorSize], 0); err != nil || kept {
		t.Fatalf("Keep of part of a segment = (kept %v, %v), want a copy", kept, err)
	}
	if _, err := d.Reset(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, kept, err := d.Keep(0, buf, 0); err != nil || !kept || d.Kept.Load() != seg {
		t.Fatalf("Keep of a whole empty segment = (kept %v, %v), %d bytes kept", kept, err, d.Kept.Load())
	}
	done := make(chan bool)
	go func() {
		same := true
		for i := 0; i < 200; i++ {
			same = same && bytes.Equal(buf, want)
		}
		done <- same
	}()
	zs := int(d.ZoneSize())
	for i := 0; i < 4; i++ {
		if _, err := d.Reset(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Write(0, bytes.Repeat([]byte{byte(i)}, zs), zs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !<-done || !bytes.Equal(buf, want) {
		t.Fatal("a kept buffer's bytes changed under zone resets and rewrites")
	}
}
