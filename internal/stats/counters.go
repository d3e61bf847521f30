package stats

import "sync/atomic"

// Counter is a concurrency-safe monotonically-increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset sets the counter to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// WriteAmp accounts for write amplification at one layer of the stack:
// bytes requested by the layer's client (host writes) versus bytes actually
// issued to the medium below (media writes, including GC migrations).
//
// Table 1 of the paper reports this ratio for the Region-Cache middle layer
// and the File-Cache filesystem; the regular-SSD FTL reports the same ratio
// at device level.
type WriteAmp struct {
	host  atomic.Uint64
	media atomic.Uint64
}

// AddHost records n bytes written by the client of this layer.
func (w *WriteAmp) AddHost(n uint64) { w.host.Add(n) }

// AddMedia records n bytes this layer wrote to the layer below.
func (w *WriteAmp) AddMedia(n uint64) { w.media.Add(n) }

// Host returns total client bytes.
func (w *WriteAmp) Host() uint64 { return w.host.Load() }

// Media returns total downstream bytes.
func (w *WriteAmp) Media() uint64 { return w.media.Load() }

// Factor returns media/host, the write-amplification factor. It returns 1
// when no host writes have been recorded, the neutral value for reporting.
func (w *WriteAmp) Factor() float64 {
	h := w.host.Load()
	if h == 0 {
		return 1
	}
	return float64(w.media.Load()) / float64(h)
}

// Reset zeroes both byte counts.
func (w *WriteAmp) Reset() {
	w.host.Store(0)
	w.media.Store(0)
}

// HitRatio tracks cache hits and misses and derives the hit ratio.
type HitRatio struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Hit records a cache hit.
func (h *HitRatio) Hit() { h.hits.Add(1) }

// Miss records a cache miss.
func (h *HitRatio) Miss() { h.misses.Add(1) }

// Add records hits and misses in one call, touching only the counts that
// change: the batched form of Hit and Miss.
func (h *HitRatio) Add(hits, misses uint64) {
	if hits > 0 {
		h.hits.Add(hits)
	}
	if misses > 0 {
		h.misses.Add(misses)
	}
}

// Hits returns the hit count.
func (h *HitRatio) Hits() uint64 { return h.hits.Load() }

// Misses returns the miss count.
func (h *HitRatio) Misses() uint64 { return h.misses.Load() }

// Ratio returns hits/(hits+misses), or 0 when no lookups were recorded.
func (h *HitRatio) Ratio() float64 {
	hits, misses := h.hits.Load(), h.misses.Load()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Reset zeroes both counts.
func (h *HitRatio) Reset() {
	h.hits.Store(0)
	h.misses.Store(0)
}
