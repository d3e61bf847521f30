// Package hdd models a mechanical disk: seek + rotational latency for
// random access, streaming transfer for sequential access, one arm.
//
// The paper backs RocksDB with a Seagate ST6000NM0115 (§4.2) precisely so
// that misses in the flash secondary cache are expensive; the throughput
// sensitivity to secondary-cache hit ratio (Table 2) follows from that
// gap. This model supplies the gap: ~a dozen milliseconds per random I/O
// versus microseconds for cached reads.
package hdd

import (
	"sync"
	"time"

	"znscache/internal/device"
	"znscache/internal/sim"
	"znscache/internal/stats"
)

// Config holds the mechanical parameters.
type Config struct {
	Capacity int64 // bytes
	// AvgSeek is the average arm move (default 8.5ms, 7200rpm class).
	AvgSeek time.Duration
	// RotationalLatency is the average half-rotation wait (default 4.16ms).
	RotationalLatency time.Duration
	// TransferRate is sustained media bandwidth in bytes/sec (default 180 MB/s).
	TransferRate int64
	// TrackSkipBytes: accesses within this distance of the previous one
	// count as sequential and skip seek+rotation (default 2 MiB).
	TrackSkipBytes int64
}

func (c *Config) fillDefaults() {
	if c.AvgSeek == 0 {
		c.AvgSeek = 8500 * time.Microsecond
	}
	if c.RotationalLatency == 0 {
		c.RotationalLatency = 4160 * time.Microsecond
	}
	if c.TransferRate == 0 {
		c.TransferRate = 180 << 20
	}
	if c.TrackSkipBytes == 0 {
		c.TrackSkipBytes = 2 << 20
	}
}

// Disk is a simulated HDD. It models time only and keeps no payload: a read
// leaves p as it is. Safe for concurrent use; the single arm is the
// serialization point, exactly as on real hardware, and mu guards it along
// with the head position.
type Disk struct {
	cfg Config

	mu   sync.Mutex
	arm  sim.Busy
	head int64 // byte position of the head after the last I/O

	Reads  stats.Counter
	Writes stats.Counter
	Seeks  stats.Counter
}

// New builds a disk.
func New(cfg Config) *Disk {
	cfg.fillDefaults()
	return &Disk{cfg: cfg, head: -1 << 62}
}

// Size returns the capacity.
func (d *Disk) Size() int64 { return d.cfg.Capacity }

// serviceTime computes the latency of one access and updates head state.
// Caller holds mu.
func (d *Disk) serviceTime(off int64, n int) time.Duration {
	var t time.Duration
	dist := off - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist > d.cfg.TrackSkipBytes {
		t += d.cfg.AvgSeek + d.cfg.RotationalLatency
		d.Seeks.Inc()
	}
	t += time.Duration(int64(n) * int64(time.Second) / d.cfg.TransferRate)
	d.head = off + int64(n)
	return t
}

// ReadAt implements device.BlockDevice.
func (d *Disk) ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error) {
	if err := device.CheckRange(off, len(p), d.cfg.Capacity); err != nil {
		return 0, err
	}
	d.mu.Lock()
	svc := d.serviceTime(off, len(p))
	lat, _ := d.arm.Acquire(now, svc)
	d.mu.Unlock()
	d.Reads.Inc()
	return lat, nil
}

// WriteAt implements device.BlockDevice.
func (d *Disk) WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	if err := device.CheckRange(off, n, d.cfg.Capacity); err != nil {
		return 0, err
	}
	d.mu.Lock()
	svc := d.serviceTime(off, n)
	lat, _ := d.arm.Acquire(now, svc)
	d.mu.Unlock()
	d.Writes.Inc()
	return lat, nil
}

var _ device.BlockDevice = (*Disk)(nil)
