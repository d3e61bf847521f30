// Package sim provides the deterministic simulation substrate shared by all
// device models: a virtual clock measured in nanoseconds and a seedable
// pseudo-random number generator.
//
// The paper's evaluation runs on real hardware and reports wall-clock
// throughput and latency. This reproduction replaces wall-clock time with a
// virtual clock that device models advance explicitly, which makes every
// experiment deterministic and independent of the host machine.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. Time only moves when a device model (or the
// harness) advances it. Clock is safe for concurrent use; Now is a single
// atomic load so lock-free read paths can consult the clock without
// serializing against writers that advance it.
type Clock struct {
	now atomic.Int64 // nanoseconds
}

// NewClock returns a clock positioned at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time since the start of the simulation.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration panics: simulated time is monotonic.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock to t if t is later than the current time and
// returns the (possibly unchanged) current time. It models waiting for a
// busy resource: callers that must wait until a device is idle advance to
// the device's free time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// Busy tracks the time at which a serially-shared resource (a flash channel,
// a disk arm) becomes free. It is the building block for modelling queueing
// delay without running an event loop: an operation that needs the resource
// at time t for duration d experiences waiting time max(0, free-t) and the
// resource's free time becomes start+d.
//
// Busy is not safe for concurrent use: it is a field of the device that
// models the resource (a flash array's dies and channels, a zone's stripe
// lanes, a disk arm), and that device's lock guards it like the rest of its
// state — FEMU's per-plane next-available times are kept the same way, by
// the one FTL thread that owns them.
type Busy struct {
	free time.Duration
}

// Acquire reserves the resource at time now for duration d. It returns the
// total latency observed by the caller (queueing delay plus service time)
// and the completion time.
func (b *Busy) Acquire(now, d time.Duration) (latency, done time.Duration) {
	start := now
	if b.free > start {
		start = b.free
	}
	done = start + d
	b.free = done
	return done - now, done
}

// FreeAt returns the time at which the resource becomes idle.
func (b *Busy) FreeAt() time.Duration { return b.free }
