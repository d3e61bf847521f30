// Package harness assembles the four cache schemes over hardware-compatible
// simulated devices and reruns every experiment in the paper's evaluation
// (§4): Figure 2 (overall comparison), Figure 3 (region fill times),
// Figure 4 + Table 1 (OP sweep), Figure 5 (RocksDB end-to-end), and
// Table 2 (Zone-Cache size sweep).
//
// Scale. The paper's testbed is a 1 TB ZNS SSD with 904 × 1077 MiB zones.
// The simulation keeps every ratio that drives the results — region:zone
// size ratio (≈1:64), cache:device ratio, OP ratios, op mixes, skew — but
// shrinks absolute capacity ~64x so experiments run in seconds. Absolute
// numbers therefore differ from the paper; shapes (ordering, rough factors,
// crossovers) are the reproduction target, as recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"znscache/internal/cache"
	"znscache/internal/device"
	"znscache/internal/f2fs"
	"znscache/internal/fault"
	"znscache/internal/flash"
	"znscache/internal/middle"
	"znscache/internal/obs"
	"znscache/internal/sim"
	"znscache/internal/ssd"
	"znscache/internal/store"
	"znscache/internal/zns"
)

// Scheme identifies one of the paper's four designs.
type Scheme int

// The four schemes of Figure 1 (plus the Block-Cache baseline). The zero
// value is Region-Cache, the paper's main artifact and this library's
// default.
const (
	RegionCache Scheme = iota
	ZoneCache
	FileCache
	BlockCache
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case BlockCache:
		return "Block-Cache"
	case FileCache:
		return "File-Cache"
	case ZoneCache:
		return "Zone-Cache"
	case RegionCache:
		return "Region-Cache"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// MarshalText encodes the scheme by its paper name, so report documents
// carry "Region-Cache" rather than an integer.
func (s Scheme) MarshalText() ([]byte, error) {
	if s < RegionCache || s > BlockCache {
		return nil, fmt.Errorf("harness: cannot encode unknown scheme %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText accepts exactly the four names String produces.
func (s *Scheme) UnmarshalText(text []byte) error {
	for _, known := range AllSchemes {
		if string(text) == known.String() {
			*s = known
			return nil
		}
	}
	return fmt.Errorf("harness: unknown scheme %q", text)
}

// AllSchemes lists the four schemes in the paper's presentation order.
var AllSchemes = []Scheme{RegionCache, ZoneCache, FileCache, BlockCache}

// ParseScheme maps a command-line scheme name, the paper name's lower-case
// stem (block|file|zone|region), to its Scheme.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes {
		if name == strings.ToLower(strings.TrimSuffix(s.String(), "-Cache")) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// HWProfile describes the simulated hardware both device types share.
type HWProfile struct {
	// Zones is the zone count of the flash the experiment may use.
	Zones int
	// BlocksPerZone and PagesPerBlock set the zone size
	// (zone = BlocksPerZone × PagesPerBlock × 4 KiB).
	BlocksPerZone int
	PagesPerBlock int
	// Channels/DiesPerChan set array parallelism.
	Channels, DiesPerChan int
}

// DefaultHW is the micro-benchmark profile: 16 MiB zones (64x scaled from
// the ZN540's 1077 MiB), 16-die array.
func DefaultHW(zones int) HWProfile {
	return HWProfile{
		Zones:         zones,
		BlocksPerZone: 16,  // 16 × 1 MiB blocks = 16 MiB zone
		PagesPerBlock: 256, // 1 MiB blocks
		Channels:      8,
		DiesPerChan:   2,
	}
}

// Geometry derives the flash geometry.
func (h HWProfile) Geometry() flash.Geometry {
	dies := h.Channels * h.DiesPerChan
	totalBlocks := h.Zones * h.BlocksPerZone
	bpd := (totalBlocks + dies - 1) / dies
	return flash.Geometry{
		Channels:      h.Channels,
		DiesPerChan:   h.DiesPerChan,
		BlocksPerDie:  bpd,
		PagesPerBlock: h.PagesPerBlock,
		PageSize:      device.SectorSize,
	}
}

// ZoneBytes is the derived zone size.
func (h HWProfile) ZoneBytes() int64 {
	return int64(h.BlocksPerZone) * int64(h.PagesPerBlock) * device.SectorSize
}

// actualZones is the zone count after geometry rounding.
func (h HWProfile) actualZones() int {
	g := h.Geometry()
	return g.Blocks() / h.BlocksPerZone
}

// RigConfig builds one scheme instance.
type RigConfig struct {
	Scheme Scheme
	HW     HWProfile
	// CacheBytes is the cache capacity exposed to the engine. Zone-Cache
	// ignores it in favour of ZoneCount full zones (no OP needed).
	CacheBytes int64
	// RegionBytes is the engine region size for Block/File/Region schemes;
	// Zone-Cache regions are zone-sized by construction.
	RegionBytes int64
	// OPRatio is the over-provisioning for Block (device FTL) and File
	// (filesystem reserve) schemes, and implicitly Region (device minus
	// CacheBytes). Default 0.20.
	OPRatio float64
	// FSMetaOverhead is the extra zone fraction F2FS loses to metadata on
	// top of OPRatio (File-Cache only). Figure 2 uses the paper's honest
	// accounting (~0.30: 38 zones + a 6 GiB block device for a 20 GiB
	// cache); Figure 4 folds everything into the stated OP (0).
	FSMetaOverhead    float64
	FSMetaOverheadSet bool
	// ZoneCount limits Zone-Cache to this many zones (0 = CacheBytes/zone).
	ZoneCount int
	// BufferMemory is the engine's region-buffer budget (default 16 MiB) —
	// fixed across schemes, so zone-sized regions afford fewer buffers.
	BufferMemory int64
	// Policy passes through to the engine when PolicySet is true;
	// otherwise the Navy-faithful default (FIFO region order) is used.
	Policy    cache.Policy
	PolicySet bool
	// Admission builds the engine's admission policy, seeded with
	// AdmissionSeed and bound to the engine's clock. Nil admits everything.
	Admission     cache.AdmissionFactory
	AdmissionSeed uint64
	// MigrateAll turns off Region-Cache's §3.4 GC/cache co-design, which is
	// on by default: GC drops a live region that sits in the coldest 30% of
	// the engine's eviction order (the LRU tail, or under FIFO the oldest
	// regions) instead of migrating it. MigrateAll is the paper's baseline
	// GC, which migrates every live region; Figure 4 and Table 1's paper
	// rows measure it.
	MigrateAll bool
	// Clock shares a virtual clock (e.g. with an LSM); nil = fresh clock.
	Clock *sim.Clock
	// TrackValues / StoreData enable full-fidelity payloads.
	TrackValues bool
	// ReadIndex enables the engine's lock-free read index (the serving
	// layer's fast-read path); off keeps classic single-threaded accounting.
	ReadIndex bool
	// Trace wires an event tracer through every layer of the rig; nil
	// disables tracing.
	Trace *obs.Tracer
	// Spans samples wall-clock engine stage timings into the recorder (the
	// serving layer's request-stage spans); nil disables sampling.
	Spans *obs.SpanRecorder
	// Faults threads a fault injector under the scheme's devices; nil runs
	// fault-free. The injector is exposed as Rig.Faults.
	Faults *fault.Config
	// MaxOpenZones / MaxActiveZones bound the ZNS device's zone resources
	// (0 = device defaults: 14 open, active = open cap). Block-Cache runs
	// on a conventional SSD and ignores them. The unwritten-contracts sweep
	// tightens these to measure how each scheme degrades.
	MaxOpenZones   int
	MaxActiveZones int
	// MiddleOpenZones overrides how many zones Region-Cache's middle layer
	// writes concurrently (0 = the default 2); still clamped to the zone
	// slack, and at run time to the device's active budget.
	MiddleOpenZones int
}

func (c *RigConfig) fillDefaults() {
	if c.OPRatio == 0 {
		c.OPRatio = 0.20
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = 256 << 10 // 16 MiB regions at paper scale / 64
	}
	if c.BufferMemory == 0 {
		c.BufferMemory = 16 << 20
	}
	if c.Clock == nil {
		c.Clock = sim.NewClock()
	}
	if !c.PolicySet {
		// Region eviction follows allocation order (FIFO). The paper's
		// "LRU" (§4.1) is CacheLib's DRAM-pool item policy; Navy's flash
		// regions are reclaimed oldest-first. Access-ordered region LRU is
		// available via PolicySet for the ablation bench — under item-level
		// zipf every old region keeps receiving stray hits, so region-LRU
		// degenerates to near-random region eviction and write
		// amplification multiplies (BenchmarkAblationPolicy shows this).
		c.Policy = cache.FIFO
	}
}

// Rig is one assembled scheme: the engine plus handles to every layer's
// stats.
type Rig struct {
	Scheme Scheme
	Engine *cache.Cache
	Clock  *sim.Clock
	// Store is the engine's region store (equal to Middle for Region-Cache).
	Store cache.RegionStore

	// Exactly one device handle is non-nil per scheme pair below.
	SSD    *ssd.SSD
	ZNS    *zns.Device
	FS     *f2fs.FS
	Middle *middle.Layer

	// Faults is the rig's injector when fault injection is enabled; nil
	// otherwise. FaultZoned/FaultBlock are the device wrappers the stack
	// actually runs on (FaultZoned also audits the ZNS zone contract).
	Faults     *fault.Injector
	FaultZoned *fault.ZonedDevice
	FaultBlock *fault.BlockDevice

	// engineCfg is the configuration Build made Engine with; Restore
	// rebuilds the engine with it.
	engineCfg cache.Config
}

// The metrics registry is the one process-wide hook left: the public
// facades take no registry, so it is how a server's registry reaches the
// rigs they build. The binaries install it once at startup, and every rig
// built afterwards registers itself. Atomic pointers because experiments
// build rigs from the forEachPoint worker pool.
var (
	globalRegistry atomic.Pointer[obs.Registry]
	rigSeq         atomic.Uint64
)

// SetMetricsRegistry installs the registry subsequently built rigs register
// their instruments into (nil uninstalls).
func SetMetricsRegistry(r *obs.Registry) { globalRegistry.Store(r) }

// Env is what the bench binaries' -events, -faults and -admission flags set:
// the tracer, fault schedule and admission factory for every rig an
// experiment builds. A rig whose RigConfig sets one of them keeps its own.
// The zero Env traces nothing, injects no faults and admits everything.
type Env struct {
	Trace     *obs.Tracer
	Faults    *fault.Config
	Admission cache.AdmissionFactory
}

// ParseEnv builds the Env of the bench binaries' -admission, -admit-budget,
// -faults and -fault-seed flags; a zero rate injects no faults. The tracer
// is the caller's.
func ParseEnv(admission string, admitBudget, faultRate float64, faultSeed uint64) (Env, error) {
	f, err := cache.ParseAdmission(admission, admitBudget)
	if err != nil {
		return Env{}, err
	}
	env := Env{Admission: f}
	if faultRate > 0 {
		env.Faults = &fault.Config{
			Seed:             faultSeed,
			ReadErrorRate:    faultRate,
			WriteErrorRate:   faultRate,
			ResetErrorRate:   faultRate,
			TornWriteRate:    faultRate,
			LatencySpikeRate: faultRate,
		}
	}
	return env, nil
}

// build assembles cfg with e filling the settings cfg leaves unset.
func (e Env) build(cfg RigConfig) (*Rig, error) {
	if cfg.Trace == nil {
		cfg.Trace = e.Trace
	}
	if cfg.Faults == nil {
		cfg.Faults = e.Faults
	}
	if cfg.Admission == nil {
		cfg.Admission = e.Admission
	}
	return Build(cfg)
}

// Build assembles a scheme.
func Build(cfg RigConfig) (*Rig, error) {
	cfg.fillDefaults()
	geo := cfg.HW.Geometry()
	timing := flash.DefaultTiming()
	rig := &Rig{Scheme: cfg.Scheme, Clock: cfg.Clock}
	if cfg.Faults != nil {
		rig.Faults = fault.NewInjector(*cfg.Faults)
	}

	var st cache.RegionStore
	switch cfg.Scheme {
	case BlockCache:
		dev, err := ssd.New(ssd.Config{
			Geometry: geo, Timing: timing,
			OPRatio: cfg.OPRatio, StoreData: cfg.TrackValues,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: block ssd: %w", err)
		}
		// The cache cannot exceed what the FTL exports ("assuming at least
		// 5 GiB OP space", §4.1) — clamp like CacheLib sizing to a device.
		n := int(cfg.CacheBytes / cfg.RegionBytes)
		if max := int(dev.Size() / cfg.RegionBytes); n > max {
			n = max
		}
		var bdev device.BlockDevice = dev
		if rig.Faults != nil {
			rig.FaultBlock = fault.WrapBlock(dev, rig.Faults)
			bdev = rig.FaultBlock
		}
		s, err := store.NewBlockStore(bdev, "block", cfg.RegionBytes, n)
		if err != nil {
			return nil, fmt.Errorf("harness: block store: %w", err)
		}
		rig.SSD = dev
		st = s

	case FileCache:
		dev, err := newZNSDevice(cfg, geo, timing)
		if err != nil {
			return nil, err
		}
		meta := cfg.FSMetaOverhead
		if !cfg.FSMetaOverheadSet {
			meta = 0.12
		}
		fs, err := f2fs.Mount(rig.wrapZoned(dev), f2fs.Config{OPRatio: cfg.OPRatio, MetaOverhead: meta})
		if err != nil {
			return nil, fmt.Errorf("harness: f2fs: %w", err)
		}
		size := cfg.CacheBytes
		if size > fs.UsableBytes() {
			size = fs.UsableBytes() / cfg.RegionBytes * cfg.RegionBytes
		}
		file, err := fs.Create("cachelib", size)
		if err != nil {
			return nil, fmt.Errorf("harness: cache file: %w", err)
		}
		s, err := store.NewBlockStore(file, "file", cfg.RegionBytes, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: file store: %w", err)
		}
		rig.ZNS = dev
		rig.FS = fs
		st = s

	case ZoneCache:
		dev, err := newZNSDevice(cfg, geo, timing)
		if err != nil {
			return nil, err
		}
		n := cfg.ZoneCount
		if n == 0 {
			n = int(cfg.CacheBytes / dev.ZoneSize())
		}
		s, err := store.NewZoneStore(rig.wrapZoned(dev), n)
		if err != nil {
			return nil, fmt.Errorf("harness: zone store: %w", err)
		}
		rig.ZNS = dev
		st = s

	case RegionCache:
		dev, err := newZNSDevice(cfg, geo, timing)
		if err != nil {
			return nil, err
		}
		// Size the middle layer's concurrency and watermarks to the OP
		// actually available: slack zones beyond the live regions.
		rpz := int(cfg.HW.ZoneBytes() / cfg.RegionBytes)
		numRegions := int(cfg.CacheBytes / cfg.RegionBytes)
		occupied := (numRegions + rpz - 1) / rpz
		slack := cfg.HW.actualZones() - occupied
		// Two concurrently-written zones: enough to aggregate per-zone
		// bandwidth beyond a single zone (the §3.3 multi-zone writing)
		// while keeping the region-placement window — and therefore the
		// number of zones still "aging" toward fully-dead — narrow. A wide
		// window scatters region deaths and inflates GC migrations.
		open := 2
		if cfg.MiddleOpenZones > 0 {
			open = cfg.MiddleOpenZones
		}
		if open > slack-1 {
			open = slack - 1
		}
		if open < 1 {
			open = 1
		}
		// The reclaim watermark scales with the available slack (the paper
		// uses 8 empty zones on a 904-zone device and notes the threshold
		// is configurable per setup, §3.3). Half the slack leaves the rest
		// as aging room; squeezing that room is what makes GC migrations —
		// and therefore WA — sensitive to the OP ratio (Table 1).
		minEmpty := slack / 2
		if minEmpty > 8 {
			minEmpty = 8
		}
		if minEmpty < 2 {
			minEmpty = 2
		}
		// Never exceed the layer's structural capacity (open zones plus one
		// zone of GC working space must stay free).
		if capRegions := (cfg.HW.actualZones() - open - 1) * rpz; numRegions > capRegions {
			numRegions = capRegions
		}
		mcfg := middle.Config{
			RegionSize:    cfg.RegionBytes,
			NumRegions:    numRegions,
			OpenZones:     open,
			MinEmptyZones: minEmpty,
		}
		if !cfg.MigrateAll {
			// The engine does not exist yet, and Restore replaces it;
			// late-bind through the rig.
			mcfg.DropFilter = func(id int) bool {
				return rig.Engine != nil && rig.Engine.RegionDroppable(id)
			}
			mcfg.OnDrop = func(id int) {
				if rig.Engine != nil {
					rig.Engine.InvalidateRegion(id)
				}
			}
		}
		mid, err := middle.New(rig.wrapZoned(dev), mcfg)
		if err != nil {
			return nil, fmt.Errorf("harness: middle layer: %w", err)
		}
		mid.Trace = cfg.Trace
		rig.ZNS = dev
		rig.Middle = mid
		st = mid

	default:
		return nil, fmt.Errorf("harness: unknown scheme %v", cfg.Scheme)
	}

	// Dynamic-random admission regulates what the device actually absorbs:
	// point the controller at this rig's device byte counter (unless the
	// caller wired a source already). The devices above are assembled before
	// the engine, so the method value reads live counters from the start.
	if f, ok := cfg.Admission.(cache.DynamicRandomFactory); ok && f.BytesWritten == nil {
		f.BytesWritten = rig.DeviceWriteBytes
		cfg.Admission = f
	}
	rig.engineCfg = cache.Config{
		Store:         st,
		Policy:        cfg.Policy,
		Admission:     cfg.Admission,
		AdmissionSeed: cfg.AdmissionSeed,
		BufferMemory:  cfg.BufferMemory,
		TrackValues:   cfg.TrackValues,
		ReadIndex:     cfg.ReadIndex,
		Clock:         cfg.Clock,
		Trace:         cfg.Trace,
		Spans:         cfg.Spans,
	}
	eng, err := cache.New(rig.engineCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: engine: %w", err)
	}
	rig.Engine = eng
	rig.Store = st
	if reg := globalRegistry.Load(); reg != nil {
		rig.RegisterMetrics(reg, obs.L("rig", strconv.FormatUint(rigSeq.Add(1), 10)))
	}
	return rig, nil
}

// Restore replaces the rig's engine with one rebuilt from snap, a Snapshot of
// an engine over the same store, with the configuration Build gave the
// first: the restart a persistent cache exists to survive. The new engine
// builds a fresh admission policy instance.
func (r *Rig) Restore(snap []byte) error {
	eng, err := cache.Restore(r.engineCfg, snap)
	if err != nil {
		return err
	}
	r.Engine = eng
	return nil
}

// RegisterMetrics registers every layer of the rig into reg, with a scheme
// label appended to base. Experiments that rebuild a rig for the same
// (scheme, rig) label set simply replace the prior series.
func (r *Rig) RegisterMetrics(reg *obs.Registry, base obs.Labels) {
	ls := base.With("scheme", r.Scheme.String())
	r.Engine.MetricsInto(reg, ls)
	if r.SSD != nil {
		r.SSD.MetricsInto(reg, ls)
	}
	if r.ZNS != nil {
		r.ZNS.MetricsInto(reg, ls)
	}
	if r.FS != nil {
		r.FS.MetricsInto(reg, ls)
	}
	if r.Middle != nil {
		r.Middle.MetricsInto(reg, ls)
	}
	// The store is the middle layer itself for Region-Cache (already
	// registered above); the package store types register their own trio.
	if ms, ok := r.Store.(obs.MetricSource); ok {
		if mid, isMid := r.Store.(*middle.Layer); !isMid || mid != r.Middle {
			ms.MetricsInto(reg, ls)
		}
	}
	if r.Faults != nil {
		r.Faults.MetricsInto(reg, ls)
	}
}

// wrapZoned interposes the rig's fault wrapper between a fresh ZNS device
// and the layer above it; without faults the device is used directly.
func (r *Rig) wrapZoned(dev *zns.Device) zns.Zoned {
	if r.Faults == nil {
		return dev
	}
	r.FaultZoned = fault.WrapZoned(dev, r.Faults)
	return r.FaultZoned
}

func newZNSDevice(cfg RigConfig, geo flash.Geometry, timing flash.Timing) (*zns.Device, error) {
	dev, err := zns.New(zns.Config{
		Geometry:       geo,
		Timing:         timing,
		BlocksPerZone:  cfg.HW.BlocksPerZone,
		StoreData:      cfg.TrackValues,
		MaxOpenZones:   cfg.MaxOpenZones,
		MaxActiveZones: cfg.MaxActiveZones,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: zns device: %w", err)
	}
	dev.Trace = cfg.Trace
	return dev, nil
}

// WAFactor returns the write-amplification factor at the layer the paper
// reports for each scheme: the middle layer for Region-Cache, the
// filesystem for File-Cache, the device FTL for Block-Cache, and the
// constant 1 for Zone-Cache.
func (r *Rig) WAFactor() float64 {
	switch r.Scheme {
	case RegionCache:
		return r.Middle.WA.Factor()
	case FileCache:
		return r.FS.WA.Factor()
	case BlockCache:
		return r.SSD.WA.Factor()
	case ZoneCache:
		return 1.0
	}
	return 1.0
}

// DeviceWriteBytes returns the bytes actually written to the flash medium so
// far — the quantity a device-lifetime write budget constrains, measured at
// the same layer WAFactor reports: middle-layer media writes for
// Region-Cache (host flushes plus GC migrations), filesystem media writes
// for File-Cache, FTL media writes for Block-Cache, and raw host writes for
// Zone-Cache (its device WA is 1 by construction).
func (r *Rig) DeviceWriteBytes() uint64 {
	switch r.Scheme {
	case RegionCache:
		return r.Middle.WA.Media()
	case FileCache:
		return r.FS.WA.Media()
	case BlockCache:
		return r.SSD.WA.Media()
	case ZoneCache:
		return r.ZNS.HostWrites.Load()
	}
	return 0
}
