// Package device defines the narrow interfaces the cache schemes program
// against: a block device (a regular SSD, an HDD, or one preallocated file on
// the filesystem) and the latency-reporting conventions shared by all
// simulated hardware.
//
// All device operations are 4 KiB-sector addressed, matching the paper's
// "4KiB I/O unit" for Block-Cache and File-Cache (Figure 1a).
package device

import (
	"errors"
	"time"
)

// SectorSize is the logical block size of every simulated device.
const SectorSize = 4096

// Common device errors.
var (
	ErrOutOfRange = errors.New("device: access beyond device size")
	ErrAlignment  = errors.New("device: offset or length not sector-aligned")
	ErrClosed     = errors.New("device: closed")
)

// BlockDevice is a random-access, sector-addressed device: a regular SSD's
// LBAs or a file's byte range. It has no TRIM: a range is dead only once it
// is overwritten, which is how a cache reuses fixed region slots.
// Implementations return the simulated service latency of each call; callers
// advance the virtual clock with it and feed their latency histograms.
//
// Data may be nil on WriteAt to perform a metadata-only write of length n:
// the device accounts for the write (mapping, WA, timing, wear) without
// retaining payload bytes. ReadAt always fills p.
type BlockDevice interface {
	// ReadAt reads len(p) bytes at offset off.
	ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error)
	// WriteAt writes n bytes at offset off. If data is non-nil it must be
	// exactly n bytes long.
	WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error)
	// Size returns the usable (exported) capacity in bytes.
	Size() int64
}

// CheckRange validates a sector-aligned access against a device size.
func CheckRange(off int64, n int, size int64) error {
	if off%SectorSize != 0 || n%SectorSize != 0 {
		return ErrAlignment
	}
	if off < 0 || n < 0 || off+int64(n) > size {
		return ErrOutOfRange
	}
	return nil
}
