package hdd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"znscache/internal/device"
)

func newTestDisk() *Disk {
	return New(Config{Capacity: 1 << 30})
}

// TestWriteThenReadTiming: a random write pays seek, rotation and transfer;
// reading the same sectors once the head has moved away costs the same. The
// disk keeps no payload: the read leaves its buffer as it was.
func TestWriteThenReadTiming(t *testing.T) {
	d := newTestDisk()
	data := bytes.Repeat([]byte{0x42}, 2*device.SectorSize)
	wlat, err := d.WriteAt(0, data, len(data), 64<<20)
	if err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	xfer := time.Duration(int64(len(data)) * int64(time.Second) / (180 << 20))
	if want := 8500*time.Microsecond + 4160*time.Microsecond + xfer; wlat != want {
		t.Fatalf("write latency %v, want seek + rotation + transfer = %v", wlat, want)
	}
	d.ReadAt(wlat, make([]byte, device.SectorSize), 0) // move the head away
	got := bytes.Repeat([]byte{1}, len(data))
	rlat, err := d.ReadAt(time.Second, got, 64<<20)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if rlat != wlat {
		t.Fatalf("read latency %v, want the write's %v", rlat, wlat)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, len(data))) {
		t.Fatal("metadata-only read wrote into its buffer")
	}
	if d.Reads.Load() != 2 || d.Writes.Load() != 1 || d.Seeks.Load() != 3 {
		t.Fatalf("reads %d, writes %d, seeks %d; want 2, 1, 3", d.Reads.Load(), d.Writes.Load(), d.Seeks.Load())
	}
}

func TestRangeChecks(t *testing.T) {
	d := newTestDisk()
	if _, err := d.ReadAt(0, make([]byte, device.SectorSize), d.Size()); !errors.Is(err, device.ErrOutOfRange) {
		t.Fatalf("oob read err = %v", err)
	}
	if _, err := d.WriteAt(0, nil, 100, 0); !errors.Is(err, device.ErrAlignment) {
		t.Fatalf("misaligned write err = %v", err)
	}
	if _, err := d.WriteAt(0, nil, device.SectorSize, d.Size()); !errors.Is(err, device.ErrOutOfRange) {
		t.Fatalf("oob write err = %v", err)
	}
}

func TestRandomAccessCostsSeek(t *testing.T) {
	d := New(Config{Capacity: 1 << 30})
	lat1, _ := d.ReadAt(0, make([]byte, device.SectorSize), 0)
	// Far-away access after the first: must pay seek + rotation (~12.6ms).
	lat2, _ := d.ReadAt(lat1, make([]byte, device.SectorSize), 512<<20)
	if lat2 < 10*time.Millisecond {
		t.Fatalf("random read latency %v, want ≥10ms", lat2)
	}
	if d.Seeks.Load() != 2 {
		t.Fatalf("Seeks = %d, want 2", d.Seeks.Load())
	}
}

func TestSequentialAccessSkipsSeek(t *testing.T) {
	d := New(Config{Capacity: 1 << 30})
	now, _ := d.ReadAt(0, make([]byte, device.SectorSize), 0)
	lat, _ := d.ReadAt(now, make([]byte, device.SectorSize), device.SectorSize)
	if lat > time.Millisecond {
		t.Fatalf("sequential read latency %v, want sub-ms transfer only", lat)
	}
	if d.Seeks.Load() != 1 {
		t.Fatalf("Seeks = %d, want 1 (first access only)", d.Seeks.Load())
	}
}

func TestArmSerializes(t *testing.T) {
	// Two random I/Os issued at the same instant: the second queues behind
	// the first on the single arm.
	d := New(Config{Capacity: 1 << 30})
	lat1, _ := d.ReadAt(0, make([]byte, device.SectorSize), 0)
	lat2, _ := d.ReadAt(0, make([]byte, device.SectorSize), 600<<20)
	if lat2 <= lat1 {
		t.Fatalf("second concurrent read (%v) did not queue behind first (%v)", lat2, lat1)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	d := New(Config{Capacity: 1 << 30})
	d.ReadAt(0, make([]byte, device.SectorSize), 0) // position the head
	small, _ := d.ReadAt(time.Second, make([]byte, device.SectorSize), device.SectorSize)
	big, _ := d.ReadAt(2*time.Second, make([]byte, 256*device.SectorSize), 2*device.SectorSize)
	if big <= small {
		t.Fatalf("1MiB transfer (%v) not slower than 4KiB (%v)", big, small)
	}
}
