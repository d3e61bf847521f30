package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"znscache/internal/bigobj"
	"znscache/internal/cache"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/workload"
)

// CDN experiment: the chunked large-object layer (internal/bigobj) under a
// CDN-flavoured workload — heavy-tailed Pareto object sizes, zipf popularity
// with diurnal drift, byte-range reads, TTL churn, origin purges — swept
// across chunk size × scheme. The question it answers is the paper's
// write-amplification story transposed to large objects: chunk size sets
// both the range-read fill granularity (small chunks waste less device
// bandwidth on partial reads) and the metadata/actor overhead (large chunks
// amortize per-item headers and index entries), and the four schemes pay
// for it differently because their region sizes and GC stories differ.

// CDNParams sizes the sweep.
type CDNParams struct {
	// Zones is the device size in 16 MiB zones (default 6: small enough
	// that the touched working set overflows the cache and eviction/GC
	// pressure separates the schemes within a short run).
	Zones int
	// Objects is the catalog size (default 3000 — with the default Pareto
	// the catalog's full-body footprint is ~2× the cache, so eviction
	// pressure is real and chunk granularity matters).
	Objects int64
	// WarmupOps/MeasureOps split each point's run (defaults 1500/2500).
	// Counters are deltas over the measured window.
	WarmupOps  int
	MeasureOps int
	Seed       uint64
	// ChunkSizes are the bigobj chunk payload sizes to sweep (default
	// 128 KiB and 512 KiB).
	ChunkSizes []int
	// RegionBytes is the engine region size for non-zone schemes (default
	// 1 MiB; every swept chunk size must fit it).
	RegionBytes int64
	// Workload overrides the generator shape; zero-valued fields take the
	// CDNConfig defaults. Seed and Objects are forced from the params.
	Workload workload.CDNConfig
	Schemes  []Scheme
	// Env is the tracer and fault schedule every rig of the sweep gets;
	// every engine admits all chunks, whatever Env's admission.
	Env Env
}

func (p *CDNParams) fillDefaults() {
	if p.Zones == 0 {
		p.Zones = 6
	}
	if p.Objects == 0 {
		p.Objects = 3000
	}
	if p.Workload.DiurnalPeriod == 0 {
		// One catalog "hour" of hot-set drift every 600 requests, so a
		// default run crosses several rotations.
		p.Workload.DiurnalPeriod = 600
	}
	if p.WarmupOps == 0 {
		p.WarmupOps = 1500
	}
	if p.MeasureOps == 0 {
		p.MeasureOps = 2500
	}
	if len(p.ChunkSizes) == 0 {
		p.ChunkSizes = []int{128 << 10, 512 << 10}
	}
	if p.RegionBytes == 0 {
		p.RegionBytes = 1 << 20
	}
	if len(p.Schemes) == 0 {
		p.Schemes = AllSchemes
	}
}

// CDNRow is one (scheme, chunk size) cell of the sweep.
type CDNRow struct {
	Scheme     Scheme `json:"scheme"`
	ChunkBytes int    `json:"chunk_bytes"`
	// Ops is the measured-window op count; SimTime the simulated time it
	// took; OpsPerSec their ratio.
	Ops       int           `json:"ops"`
	SimTime   time.Duration `json:"sim_elapsed_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`
	// Reads partition into ObjectHits (range served entirely from cache)
	// and Fills (whole-object refetch after a miss — whole-object or
	// partial). Reads == ObjectHits + Fills.
	Reads      int `json:"reads"`
	ObjectHits int `json:"object_hits"`
	Fills      int `json:"fills"`
	// Deletes are origin purges applied in the window.
	Deletes int `json:"deletes"`
	// ObjectHitRatio is ObjectHits over Reads.
	ObjectHitRatio float64 `json:"object_hit_ratio"`
	// ServedBytes is payload returned to readers; FillBytes is payload
	// streamed in by fills. Both exclude chunk headers and manifests.
	ServedBytes uint64 `json:"served_bytes"`
	FillBytes   uint64 `json:"fill_bytes"`
	// Bigobj counter deltas over the window.
	ChunkHits         uint64 `json:"chunk_hits"`
	ChunkMisses       uint64 `json:"chunk_misses"`
	PartialMisses     uint64 `json:"partial_object_misses"`
	ManifestRepairs   uint64 `json:"manifest_repairs"`
	EvictionsDeferred uint64 `json:"pinned_evictions_deferred"`
	// WAFactor is the device write amplification over the whole run
	// (cumulative, like the other experiments report it).
	WAFactor float64 `json:"wa_factor"`
}

// RunCDN sweeps chunk size × scheme. Rows come back scheme-major in
// Schemes order, chunk sizes in the given order.
func RunCDN(p CDNParams) ([]CDNRow, error) {
	p.fillDefaults()
	hw := DefaultHW(p.Zones)
	cacheBytes := int64(hw.actualZones()) * hw.ZoneBytes() * 20 / 25

	type point struct {
		scheme Scheme
		chunk  int
	}
	var points []point
	for _, s := range p.Schemes {
		for _, c := range p.ChunkSizes {
			points = append(points, point{s, c})
		}
	}

	rows := make([]CDNRow, len(points))
	err := forEachPoint(len(points), func(i int) error {
		pt := points[i]
		cfg := RigConfig{
			Scheme:      pt.scheme,
			HW:          hw,
			CacheBytes:  cacheBytes,
			RegionBytes: p.RegionBytes,
			TrackValues: true,
			// bigobj owns admission at object granularity; the engine
			// below it must not second-guess individual chunks, so Env's
			// admission factory is overridden here.
			Admission: cache.AdmitAll{},
		}
		if pt.scheme == ZoneCache {
			cfg.ZoneCount = hw.actualZones()
		}
		rig, err := p.Env.build(cfg)
		if err != nil {
			return fmt.Errorf("cdn %v chunk=%d: %w", pt.scheme, pt.chunk, err)
		}
		row, err := runCDNPoint(rig, pt.chunk, p)
		if err != nil {
			return fmt.Errorf("cdn %v chunk=%d: %w", pt.scheme, pt.chunk, err)
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runCDNPoint drives one rig through warmup + measure.
func runCDNPoint(rig *Rig, chunkSize int, p CDNParams) (*CDNRow, error) {
	store, err := bigobj.New(bigobj.Config{
		Backend:   rig.Engine,
		ChunkSize: chunkSize,
		Clock:     rig.Clock,
	})
	if err != nil {
		return nil, err
	}
	if reg := globalRegistry.Load(); reg != nil {
		store.MetricsInto(reg, obs.L(
			"experiment", "cdn",
			"scheme", rig.Scheme.String(),
			"chunk_bytes", strconv.Itoa(chunkSize),
		))
	}

	wcfg := p.Workload
	wcfg.Objects = p.Objects
	wcfg.Seed = p.Seed
	gen := workload.NewCDN(wcfg)

	// Origin content: a fixed random corpus sliced per object. Fills model
	// the origin fetch; content identity is irrelevant to the sweep (the
	// torn-read property has its own oracle tests), so one buffer serves
	// every object.
	if wcfg.MaxSize == 0 {
		wcfg.MaxSize = 2 << 20
	}
	corpus := make([]byte, wcfg.MaxSize)
	sim.NewRand(p.Seed ^ 0xC0FFEE).Bytes(corpus)

	row := &CDNRow{Scheme: rig.Scheme, ChunkBytes: chunkSize}
	copyBuf := make([]byte, 64<<10)

	apply := func(op workload.CDNOp) error {
		if op.Delete {
			store.Delete(op.Key)
			row.Deletes++
			return nil
		}
		row.Reads++
		rr, err := store.NewRangeReader(op.Key, op.Off, op.Len)
		if err == nil {
			n, cerr := io.CopyBuffer(io.Discard, rr, copyBuf)
			rr.Close()
			row.ServedBytes += uint64(n)
			if cerr == nil {
				row.ObjectHits++
				return nil
			}
			if !errors.Is(cerr, bigobj.ErrPartialObject) {
				return cerr
			}
		} else if !errors.Is(err, bigobj.ErrNotFound) && !errors.Is(err, bigobj.ErrPartialObject) {
			return err
		}
		// Miss (whole or partial): read-through fill of the whole object
		// from the origin corpus.
		row.Fills++
		row.FillBytes += uint64(op.Size)
		if err := store.Put(op.Key, bytes.NewReader(corpus[:op.Size]), op.TTL); err != nil {
			return fmt.Errorf("fill %q (%d bytes): %w", op.Key, op.Size, err)
		}
		return nil
	}

	for i := 0; i < p.WarmupOps; i++ {
		if err := apply(gen.Next()); err != nil {
			return nil, err
		}
	}

	// Reset the window: deltas from here on.
	*row = CDNRow{Scheme: rig.Scheme, ChunkBytes: chunkSize}
	s0 := store.Stats()
	t0 := rig.Clock.Now()

	for i := 0; i < p.MeasureOps; i++ {
		if err := apply(gen.Next()); err != nil {
			return nil, err
		}
	}

	s1 := store.Stats()
	row.Ops = p.MeasureOps
	row.SimTime = rig.Clock.Now() - t0
	if secs := row.SimTime.Seconds(); secs > 0 {
		row.OpsPerSec = float64(row.Ops) / secs
	}
	if row.Reads > 0 {
		row.ObjectHitRatio = float64(row.ObjectHits) / float64(row.Reads)
	}
	row.ChunkHits = s1.ChunkHits - s0.ChunkHits
	row.ChunkMisses = s1.ChunkMisses - s0.ChunkMisses
	row.PartialMisses = s1.PartialMisses - s0.PartialMisses
	row.ManifestRepairs = s1.ManifestRepairs - s0.ManifestRepairs
	row.EvictionsDeferred = s1.EvictionsDeferred - s0.EvictionsDeferred
	row.WAFactor = rig.WAFactor()
	return row, nil
}
