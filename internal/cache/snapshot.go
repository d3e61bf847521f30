package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Persistence ("warm roll"). A persistent cache must survive process
// restarts without losing the flash contents — CacheLib serializes its
// index and region metadata at shutdown and recovers them at startup,
// which is what makes the flash cache *persistent* rather than merely
// large. Snapshot captures everything the engine needs to re-attach to a
// store whose regions still hold the data; Restore rebuilds an engine from
// it.
//
// The open region's buffer is DRAM-only and is intentionally dropped, as
// CacheLib drops its in-flight allocation regions on shutdown: its keys
// are removed from the recovered index and the region restarts empty.

// snapshotVersion guards against format drift.
const snapshotVersion = 1

// snapEntry mirrors entry with exported fields for gob.
type snapEntry struct {
	Key      string
	Region   int32
	Offset   uint32
	KeyLen   uint16
	ValLen   uint32
	ExpireAt uint32
}

// snapRegion mirrors the durable part of regionMeta. Appended is the key
// log's appended count, the region's eviction charge; its keys are those of
// the entries that point into it.
type snapRegion struct {
	State    regionState
	Appended int
	Fill     int64
}

type snapshotData struct {
	Version    int
	RegionSize int64
	NumRegions int
	Entries    []snapEntry
	Regions    []snapRegion
	Order      []int // region ids, MRU first
	Free       []int
	Open       int
	Seq        uint64
}

// Snapshot serializes the engine's recovery metadata. Call at a quiescent
// point (no in-flight flushes are carried over: Snapshot drains first).
func (c *Cache) Snapshot() ([]byte, error) {
	c.Drain()
	s := snapshotData{
		Version:    snapshotVersion,
		RegionSize: c.store.RegionSize(),
		NumRegions: c.store.NumRegions(),
		Seq:        c.seq,
	}
	c.regions.save(&s)
	// Entries come in key-log order, so an unchanged engine snapshots to the
	// same bytes.
	c.eachEntry(func(k string, e entry) {
		s.Entries = append(s.Entries, snapEntry{
			Key: k, Region: int32(e.region), Offset: e.offset,
			KeyLen: uint16(len(k)), ValLen: e.valLen,
			ExpireAt: e.expireAt,
		})
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return nil, fmt.Errorf("cache: snapshot encode: %w", err)
	}
	return buf.Bytes(), nil
}

// SnapshotKeys decodes only the key set a snapshot's index records, without
// rebuilding an engine: bigobj's crash drill repairs manifests over it. Keys
// are returned sorted so replays are deterministic.
func SnapshotKeys(snapshot []byte) ([]string, error) {
	var s snapshotData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&s); err != nil {
		return nil, fmt.Errorf("cache: snapshot decode: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("cache: snapshot version %d unsupported", s.Version)
	}
	keys := make([]string, 0, len(s.Entries))
	for i := range s.Entries {
		keys = append(keys, s.Entries[i].Key)
	}
	sort.Strings(keys)
	return keys, nil
}

// validate checks the snapshot's structural invariants so a corrupt or
// truncated snapshot is rejected with an error instead of corrupting the
// engine — or panicking on an out-of-range index or a transition from the
// wrong state — later. FuzzRestore hammers this path.
func (s *snapshotData) validate() error {
	n := s.NumRegions
	if len(s.Regions) != n {
		return fmt.Errorf("cache: snapshot has %d region records for %d regions", len(s.Regions), n)
	}
	if s.Open < 0 || s.Open >= n {
		return fmt.Errorf("cache: snapshot open region %d out of range", s.Open)
	}
	// The eviction order and the free list partition the regions by state:
	// flushing and sealed ones are ordered and free ones free, while the open
	// region, the one region open, and quarantined ones are in neither.
	inList := [regionQuarantined + 1]int8{regionFlushing: 1, regionSealed: 1, regionFree: 2}
	listed := make([]int8, n)
	for l, ids := range [][]int{s.Order, s.Free} {
		for _, id := range ids {
			if id < 0 || id >= n || listed[id] != 0 {
				return fmt.Errorf("cache: region %d of %d listed twice or out of range", id, n)
			}
			listed[id] = int8(l + 1)
		}
	}
	for i := range s.Regions {
		r := &s.Regions[i]
		if r.State > regionQuarantined || listed[i] != inList[r.State] || (r.State == regionOpen) != (i == s.Open) {
			return fmt.Errorf("cache: region %d in state %d is misplaced", i, r.State)
		}
		if r.Fill < 0 || r.Fill > s.RegionSize {
			return fmt.Errorf("cache: region %d: fill %d outside [0, %d]", i, r.Fill, s.RegionSize)
		}
		if r.Appended < 0 {
			return fmt.Errorf("cache: region %d: %d keys appended", i, r.Appended)
		}
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Key == "" {
			return fmt.Errorf("cache: entry %d: empty key", i)
		}
		if int(e.KeyLen) != len(e.Key) {
			return fmt.Errorf("cache: entry %q: recorded key length %d != %d", e.Key, e.KeyLen, len(e.Key))
		}
		if e.Region < 0 || int(e.Region) >= n {
			return fmt.Errorf("cache: entry %q: region %d of %d", e.Key, e.Region, n)
		}
		end := int64(e.Offset) + itemHeaderSize + int64(e.KeyLen) + int64(e.ValLen)
		if end > s.RegionSize {
			return fmt.Errorf("cache: entry %q: [%d, %d) beyond region size %d", e.Key, e.Offset, end, s.RegionSize)
		}
		if r := &s.Regions[e.Region]; int(e.Region) != s.Open && end > r.Fill {
			return fmt.Errorf("cache: entry %q: end %d beyond region %d fill %d", e.Key, end, e.Region, r.Fill)
		}
	}
	return nil
}

// regionSizer is the optional RegionStore extension Restore's repair pass
// uses to cross-check snapshot metadata against what the store can really
// serve: RegionReadableBytes reports how many leading bytes of region id
// are readable (a zone's write pointer, a mapped region's size), with
// ok=false when the store cannot tell.
type regionSizer interface {
	RegionReadableBytes(id int) (int64, bool)
}

// Restore builds an engine over store from a Snapshot taken against the
// same store contents. The snapshot is validated structurally (a corrupt
// or truncated snapshot errors out, never panics), then repaired against
// the store: any sealed region whose recorded Fill exceeds what the store
// can actually serve — the zone was torn, reset, or only partially flushed
// after the snapshot cut — is truncated, and index entries past the
// readable extent are dropped (counted in Stats.RestoreDrops). Recovery
// may lose keys; it must never resurrect unverifiable ones.
func Restore(cfg Config, snapshot []byte) (*Cache, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.restore(snapshot); err != nil {
		return nil, err
	}
	return c, nil
}

// restore is Restore into c, a new engine.
func (c *Cache) restore(snapshot []byte) error {
	var s snapshotData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&s); err != nil {
		return fmt.Errorf("cache: snapshot decode: %w", err)
	}
	if s.Version != snapshotVersion {
		return fmt.Errorf("cache: snapshot version %d unsupported", s.Version)
	}
	if s.RegionSize != c.store.RegionSize() || s.NumRegions != c.store.NumRegions() {
		return fmt.Errorf("cache: snapshot taken against %d regions of %d bytes; store has %d of %d",
			s.NumRegions, s.RegionSize, c.store.NumRegions(), c.store.RegionSize())
	}
	if err := s.validate(); err != nil {
		return err
	}

	c.seq = s.Seq
	c.regions.load(&s, c.clock.Now())
	// A flushing record loaded as sealed: its device write either completed
	// or its entries are dropped by the cross-check below.
	if sizer, ok := c.store.(regionSizer); ok {
		for i := range c.regions.meta {
			m := &c.regions.meta[i]
			if m.state != regionSealed {
				continue
			}
			if avail, ok := sizer.RegionReadableBytes(i); ok && avail < m.fill {
				m.fill = avail
				if m.fill == 0 {
					// Nothing survives: return the region to the free pool.
					c.regions.drop(i)
				}
			}
		}
	}
	for _, e := range s.Entries {
		// Keys living in the open region are dropped: its buffer was DRAM.
		if int(e.Region) == s.Open {
			continue
		}
		m := &c.regions.meta[e.Region]
		end := int64(e.Offset) + itemHeaderSize + int64(e.KeyLen) + int64(e.ValLen)
		if m.state != regionSealed || end > m.fill {
			// The bytes this entry points at are not durably readable.
			c.restoreDrop.Inc()
			continue
		}
		ent := entry{region: uint32(e.Region), offset: e.Offset, valLen: e.ValLen, expireAt: e.ExpireAt}
		// Restored values live on flash, not in memory: the entry has no
		// image, so the lock-free path answers Contains and misses, and a
		// verified sealed read promotes the key to servable on first touch.
		// The key goes into its region's log, which so holds exactly the
		// restored keys, in the snapshot's order. Two keys that share a hash
		// under this engine's seed keep the later entry: the earlier key
		// dies in its log.
		c.logKey(&m.keys, e.Key)
		if old, ok := c.idx.put(c.idx.hash(e.Key), ent); ok {
			c.died(old.region)
		}
	}
	// A region still charges eviction for every key it was given, dead
	// ones included. A snapshot without the count charges the keys logged.
	for i := range c.regions.meta {
		if m := &c.regions.meta[i]; m.state == regionSealed {
			m.keys.appended = max(m.keys.appended, s.Regions[i].Appended)
		}
	}
	return nil
}

// CorruptSnapshotForTest mutates recovery metadata in a structurally valid
// way: it shrinks the recorded value length of one sealed-region entry, so
// the restored index disagrees with the bytes on flash. The result decodes
// and validates cleanly; only the on-flash checksum stands between it and
// wrong data being served — which is exactly what the crash harness's
// mutation check verifies. Returns ok=false when the snapshot holds no
// suitable entry.
func CorruptSnapshotForTest(snapshot []byte) ([]byte, bool) {
	var s snapshotData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&s); err != nil {
		return nil, false
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Region < 0 || int(e.Region) >= len(s.Regions) || int(e.Region) == s.Open {
			continue
		}
		if st := s.Regions[e.Region].State; st != regionSealed && st != regionFlushing {
			continue
		}
		if e.ValLen < 2 {
			continue
		}
		e.ValLen /= 2
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	}
	return nil, false
}
