// Seeded property suite for the region lifecycle (region.go): op sequences —
// sets, deletes and gets, TTL expiry, SealOpen, InvalidateRegion,
// snapshot/restore (with a torn region for Restore's repair) and injected
// store write, read and evict failures — run against the engine and against
// regionModel, an independent reference model of region states, the free
// list, the eviction order, the in-flight flushes and buffer ownership.
// After every op the engine's region table must equal the model's and the
// table's own invariants must hold; every hit must return the bytes last
// stored for its key, and no hit may outlive its TTL. FuzzRegionOps feeds the
// same decoder arbitrary bytes.
package cache

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"znscache/internal/sim"
)

// opStore is a memStore whose next failWrites writes, failReads reads and
// failEvicts evicts fail, each one attempt. avail, when set for a region,
// is what RegionReadableBytes reports of it: a torn zone for Restore.
type opStore struct {
	mem                              *memStore
	failWrites, failReads, failEvict int
	avail                            map[int]int64
}

func (s *opStore) NumRegions() int   { return s.mem.n }
func (s *opStore) RegionSize() int64 { return s.mem.regionSize }

func (s *opStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if s.failWrites > 0 {
		s.failWrites--
		return 0, errFlaky
	}
	return s.mem.WriteRegion(now, id, data)
}

func (s *opStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if s.failReads > 0 {
		s.failReads--
		return 0, errFlaky
	}
	return s.mem.ReadRegion(now, id, p, n, off)
}

func (s *opStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	if s.failEvict > 0 {
		s.failEvict--
		return 0, errFlaky
	}
	return s.mem.EvictRegion(now, id)
}

func (s *opStore) RegionReadableBytes(id int) (int64, bool) {
	n, ok := s.avail[id]
	return n, ok
}

// viewOpStore is an opStore that keeps flushed buffers, so sealed regions'
// images hold their bytes. A failed write keeps nothing.
type viewOpStore struct{ *opStore }

func (s viewOpStore) KeepRegion(now time.Duration, id int, data []byte) (time.Duration, bool, error) {
	if s.failWrites > 0 {
		s.failWrites--
		return 0, false, errFlaky
	}
	return s.mem.KeepRegion(now, id, data)
}

// The suite's geometry: eight 4 KiB regions hold three or four items each,
// so short sequences roll and evict.
const (
	opRegions    = 8
	opRegionSize = 4096
	opKeys       = 20
)

type opKind uint8

const (
	opSet opKind = iota
	opSetTTL
	opDelete
	opGet
	opAdvance
	opSealOpen
	opInvalidate
	opRestore
	opFailWrites
	opFailReads
	opFailEvicts
)

// opWeights is the op mix: the first byte of an op, mod its length, picks
// the kind.
var opWeights = [...]opKind{
	opSet, opSet, opSet, opSet, opSet, opSet, opSet, opSet,
	opSet, opSet, opSet, opSet, opSet, opSet, opSet, opSet,
	opSetTTL, opSetTTL, opSetTTL, opSetTTL, opSetTTL, opSetTTL,
	opDelete, opDelete, opDelete,
	opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet,
	opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet,
	opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet,
	opGet, opGet,
	opAdvance, opAdvance, opAdvance,
	opSealOpen, opSealOpen,
	opInvalidate,
	opRestore,
	opFailWrites, opFailReads, opFailReads, opFailEvicts,
}

// regionOp is one decoded op: a key, a value length, and an argument (TTL
// or clock step in seconds, region id, fault count, tear).
type regionOp struct {
	kind   opKind
	key    string
	valLen int
	arg    int
}

// regionSuiteConfig is one engine configuration of the suite.
type regionSuiteConfig struct {
	policy    Policy
	readIndex bool
	view      bool  // the store keeps flushed buffers (viewOpStore)
	buffers   int64 // BufferMemory in regions
}

func (sc regionSuiteConfig) String() string {
	return fmt.Sprintf("policy=%d/readindex=%v/view=%v/buffers=%d",
		sc.policy, sc.readIndex, sc.view, sc.buffers)
}

// decodeRegionOps decodes a configuration from data's first byte (bit 1 is
// unused) and then one op from every three bytes after it.
func decodeRegionOps(data []byte) (regionSuiteConfig, []regionOp) {
	var b byte
	if len(data) > 0 {
		b, data = data[0], data[1:]
	}
	sc := regionSuiteConfig{
		policy: Policy(b & 1), readIndex: b>>2&1 == 1, view: b>>3&1 == 1,
		buffers: int64(b>>4)%3 + 1,
	}
	var ops []regionOp
	for ; len(data) >= 3; data = data[3:] {
		ops = append(ops, regionOp{
			kind:   opWeights[int(data[0])%len(opWeights)],
			key:    fmt.Sprintf("k%02d", int(data[1])%opKeys),
			valLen: 50 + int(data[2])*6,
			arg:    int(data[1]) ^ int(data[2]),
		})
	}
	return sc, ops
}

// mRegion is the model of one region slot.
type mRegion struct {
	state regionState
	fails int
}

// mValue is the model of one key: the bytes last stored, and a time from
// which the item is certainly expired (0 = no TTL).
type mValue struct {
	val      []byte
	deadline time.Duration
}

// regionModel is a reference model of the region lifecycle. It shares no
// code with regionTable; what it cannot know — which region a key lives in,
// how full the open region is — it reads from the engine before an op.
type regionModel struct {
	sc          regionSuiteConfig
	regions     []mRegion
	open        int
	free        []int
	order       []int // front = MRU
	inflight    []int
	maxInflight int
	failW       int // pending injected failures, mirroring the store's
	failR       int
	failE       int
	values      map[string]mValue
}

func newRegionModel(sc regionSuiteConfig) *regionModel {
	m := &regionModel{sc: sc, regions: make([]mRegion, opRegions), maxInflight: int(sc.buffers) - 1,
		values: map[string]mValue{}}
	for i := opRegions - 1; i >= 1; i-- {
		m.free = append(m.free, i)
	}
	m.regions[0].state = regionOpen
	return m
}

// attempts runs one retried store op against a pending failure count and
// reports whether it exhausted its attempts.
func attempts(pending *int) bool {
	if *pending > maxRetries {
		*pending -= maxRetries + 1
		return true
	}
	*pending = 0
	return false
}

// without returns list without id.
func without(list []int, id int) []int {
	return slices.DeleteFunc(list, func(x int) bool { return x == id })
}

func (m *regionModel) land(id int) {
	m.regions[id].state = regionSealed
	m.inflight = without(m.inflight, id)
}

func (m *regionModel) quarantine(id int) {
	m.regions[id].state = regionQuarantined
	m.order = without(m.order, id)
}

func (m *regionModel) touch(id int) {
	if m.sc.policy == LRU && slices.Contains(m.order, id) {
		m.order = append([]int{id}, without(m.order, id)...)
	}
}

// roll models rollRegion and reports whether it fails.
func (m *regionModel) roll() bool {
	id := m.open
	if m.regions[id].state != regionOpen {
		return true
	}
	if len(m.inflight) > 0 && len(m.inflight) >= m.maxInflight {
		m.land(m.inflight[0])
	}
	if attempts(&m.failW) {
		if m.regions[id].fails++; m.regions[id].fails >= quarantineAfter {
			m.quarantine(id)
		} else {
			m.regions[id].state = regionFree
			m.free = append(m.free, id)
		}
	} else {
		m.regions[id].state = regionFlushing
		m.order = append([]int{id}, m.order...)
		m.inflight = append(m.inflight, id)
		if m.maxInflight == 0 {
			m.land(id)
		}
	}
	for len(m.free) == 0 {
		if len(m.order) == 0 {
			return true
		}
		v := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		if m.regions[v].state == regionFlushing {
			m.land(v)
		}
		if attempts(&m.failE) {
			m.quarantine(v)
			continue
		}
		m.regions[v].state = regionFree
		m.free = append(m.free, v)
	}
	m.open = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.regions[m.open].state = regionOpen
	return false
}

// regionRun drives one op sequence through an engine and the model.
type regionRun struct {
	tb    testing.TB
	sc    regionSuiteConfig
	cfg   Config
	st    *opStore
	c     *Cache
	m     *regionModel
	clock *sim.Clock
	// total sums the counters of the engines a run went through.
	total Stats
}

// addStats adds to dst the counters the suite checks its coverage by.
func addStats(dst *Stats, st Stats) {
	dst.Hits += st.Hits
	dst.Evictions += st.Evictions
	dst.Quarantined += st.Quarantined
	dst.RestoreDrops += st.RestoreDrops
	dst.CoDesignDrops += st.CoDesignDrops
}

func newRegionRun(tb testing.TB, sc regionSuiteConfig) *regionRun {
	r := &regionRun{tb: tb, sc: sc, st: &opStore{mem: newMemStore(opRegions, opRegionSize)}, clock: sim.NewClock(), m: newRegionModel(sc)}
	r.cfg = Config{Store: r.st, Policy: sc.policy, ReadIndex: sc.readIndex,
		TrackValues: true, BufferMemory: sc.buffers * opRegionSize, Clock: r.clock}
	if sc.view {
		r.cfg.Store = viewOpStore{r.st}
	}
	c, err := New(r.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.c = c
	return r
}

// opValue is key's value at version n: its bytes name both, so a value served
// for the wrong key or version shows.
func opValue(key string, n, valLen int) []byte {
	v := bytes.Repeat([]byte(fmt.Sprintf("%s/%d|", key, n)), valLen/5+1)
	return v[:valLen]
}

// liveEntry returns key's entry when it is indexed and not yet expired.
func (r *regionRun) liveEntry(key string) (entry, bool) {
	_, e, ok := r.c.idx.lookup(key)
	return e, ok && !e.expired(r.clock.Now()+r.c.cpu.IndexLookup)
}

func (r *regionRun) apply(i int, op regionOp) {
	c, m := r.c, r.m
	var err error
	wantErr := false
	switch op.kind {
	case opSet, opSetTTL:
		ttl := time.Duration(0)
		if op.kind == opSetTTL {
			ttl = time.Duration(1+op.arg%3) * time.Second
		}
		size := itemHeaderSize + int64(len(op.key)) + int64(op.valLen)
		if o := &c.regions.meta[c.regions.open]; o.state != regionOpen || o.fill+size > opRegionSize {
			wantErr = m.roll()
		}
		v := opValue(op.key, i, op.valLen)
		err = c.SetTTL(op.key, v, 0, ttl)
		if err == nil {
			mv := mValue{val: v}
			if ttl > 0 {
				mv.deadline = ((r.clock.Now()+ttl)/time.Second + 1) * time.Second
			}
			m.values[op.key] = mv
		}
	case opDelete:
		c.Delete(op.key)
		delete(m.values, op.key)
	case opGet:
		r.get(op.key)
	case opAdvance:
		r.clock.Advance(time.Duration(1+op.arg%4) * 700 * time.Millisecond)
	case opSealOpen:
		if c.regions.meta[c.regions.open].fill > 0 {
			wantErr = m.roll()
		}
		err = c.SealOpen()
		if !wantErr {
			for len(m.inflight) > 0 {
				m.land(m.inflight[0])
			}
		}
	case opInvalidate:
		id := op.arg % opRegions
		if m.regions[id].state == regionSealed && slices.Contains(m.order, id) {
			m.order = without(m.order, id)
			m.regions[id].state = regionFree
			m.free = append(m.free, id)
		}
		c.InvalidateRegion(id)
	case opRestore:
		r.restore(op.arg)
	case opFailWrites:
		n := 1 + op.arg%4
		r.st.failWrites += n
		m.failW += n
	case opFailReads:
		n := 1 + op.arg%4
		r.st.failReads += n
		m.failR += n
	case opFailEvicts:
		n := 1 + op.arg%4
		r.st.failEvict += n
		m.failE += n
	}
	if (err != nil) != wantErr {
		r.tb.Fatalf("op %d (%+v): error %v, model expected one: %v", i, op, err, wantErr)
	}
	if err := r.check(); err != nil {
		r.tb.Fatalf("after op %d (%+v, %s): %v", i, op, r.sc, err)
	}
}

// get looks key up, lock-free first with the read index on, and checks a
// hit against the model.
func (r *regionRun) get(key string) {
	c, m := r.c, r.m
	now := r.clock.Now()
	e, live := r.liveEntry(key)
	var val []byte
	found, done := false, false
	if r.sc.readIndex {
		val, found, done = c.TryFastGet(key)
		c.drainReadNotes()
		if done && found {
			m.touch(int(e.region))
		}
	}
	if id := int(e.region); !done {
		if live && m.regions[id].state == regionSealed && attempts(&m.failR) {
			if m.regions[id].fails++; m.regions[id].fails >= quarantineAfter {
				m.quarantine(id)
			}
		} else if live {
			m.touch(id)
		}
		var err error
		if val, found, err = c.Get(key); err != nil {
			r.tb.Fatalf("Get(%s): %v", key, err)
		}
	}
	if !found {
		return
	}
	mv, ok := m.values[key]
	switch {
	case !ok:
		r.tb.Fatalf("Get(%s) hit a deleted or never stored key", key)
	case mv.deadline != 0 && now >= mv.deadline:
		r.tb.Fatalf("Get(%s) hit at %v, past its TTL deadline %v", key, now, mv.deadline)
	case !bytes.Equal(val, mv.val):
		r.tb.Fatalf("Get(%s) = %.40q (%d bytes), last stored %.40q (%d bytes)", key, val, len(val), mv.val, len(mv.val))
	}
}

// restore snapshots the engine and restores it over the same store. A tear
// arg first cuts a sealed region's readable bytes: to nothing, which frees
// it, or to its first sector, which truncates it.
func (r *regionRun) restore(arg int) {
	c, m := r.c, r.m
	for len(m.inflight) > 0 {
		m.land(m.inflight[0])
	}
	snap, err := c.Snapshot()
	if err != nil {
		r.tb.Fatalf("Snapshot: %v", err)
	}
	torn := -1
	if tear := arg % 4; tear < 2 && m.regions[arg%opRegions].state == regionSealed {
		torn = arg % opRegions
		r.st.avail = map[int]int64{torn: int64(tear) * 512}
	}
	defer func() { r.st.avail = nil }()
	c2, err := Restore(r.cfg, snap)
	if wantErr := m.regions[m.open].state != regionOpen; (err != nil) != wantErr {
		r.tb.Fatalf("Restore: error %v, model expected one: %v", err, wantErr)
	}
	if err != nil {
		return
	}
	addStats(&r.total, c.Stats())
	r.c = c2
	m.inflight = nil
	for i := range m.regions {
		m.regions[i].fails = 0
	}
	if torn >= 0 && r.st.avail[torn] == 0 {
		m.order = without(m.order, torn)
		m.regions[torn].state = regionFree
		m.free = append(m.free, torn)
	}
}

// check compares the engine's region table with the model and checks the
// table's invariants.
func (r *regionRun) check() error {
	rt, m := r.c.regions, r.m
	if err := regionLiveErr(r.c); err != nil {
		return err
	}
	var order []int
	for e := rt.order.Front(); e != nil; e = e.Next() {
		order = append(order, e.Value.(int))
	}
	if rt.open != m.open || !slices.Equal(rt.free, m.free) || !slices.Equal(order, m.order) || !slices.Equal(rt.inflight, m.inflight) {
		return fmt.Errorf("table open %d free %v order %v in flight %v; model open %d free %v order %v in flight %v",
			rt.open, rt.free, order, rt.inflight, m.open, m.free, m.order, m.inflight)
	}
	// free ∩ order = ∅ and free ∪ order ∪ {open} = every region not
	// quarantined.
	listed := make([]int, opRegions)
	for _, id := range slices.Concat(rt.free, order, []int{rt.open}) {
		listed[id]++
	}
	var held int64
	for i := range rt.meta {
		rm := &rt.meta[i]
		if rm.state != m.regions[i].state {
			return fmt.Errorf("region %d is %d, model says %d", i, rm.state, m.regions[i].state)
		}
		// A quarantined region is listed nowhere, unless a roll found no
		// region to open after it: then it is still named open.
		quarantined := rm.state == regionQuarantined
		if want := 1; listed[i] != want && !(quarantined && i != rt.open && listed[i] == 0) {
			return fmt.Errorf("region %d (state %d) is listed %d times in free, order and open", i, rm.state, listed[i])
		}
		buffered := rm.state == regionOpen || rm.state == regionFlushing
		img := r.c.idx.imageOf(uint32(i))
		if (rm.buf != nil) != buffered || r.sc.readIndex && buffered && img == nil {
			return fmt.Errorf("region %d (state %d): buffer %v, image %v", i, rm.state, rm.buf != nil, img != nil)
		}
		if (rm.state == regionFree || quarantined) && (img != nil || rm.fill != 0 || rm.keys.len() != 0) {
			return fmt.Errorf("region %d (state %d) keeps content", i, rm.state)
		}
		if rm.fill > opRegionSize {
			return fmt.Errorf("region %d (state %d) holds %d bytes", i, rm.state, rm.fill)
		}
		held += int64(cap(rm.buf))
	}
	for _, b := range rt.spare {
		held += int64(cap(b))
	}
	if bound := r.cfg.BufferMemory; held > bound || rt.bufBytes.Load() > bound {
		return fmt.Errorf("buffers hold %d bytes (gauge %d), bound %d", held, rt.bufBytes.Load(), bound)
	}
	if rt.bufBytes.Load() != held {
		return fmt.Errorf("buffer gauge %d, buffers held %d", rt.bufBytes.Load(), held)
	}
	// GC may drop exactly the sealed regions among the last ⌊0.3·n⌋ of the
	// n in the eviction order.
	cold := len(m.order) * 3 / 10
	for id := range rt.meta {
		i := slices.Index(m.order, id)
		want := m.regions[id].state == regionSealed && i >= len(m.order)-cold
		if got := r.c.RegionDroppable(id); got != want {
			return fmt.Errorf("RegionDroppable(%d) = %v; the model has it %d at %d of order %v", id, got, m.regions[id].state, i, m.order)
		}
	}
	return nil
}

// runRegionOps runs data's op sequence and returns the engines' summed
// counters.
func runRegionOps(tb testing.TB, data []byte) Stats {
	sc, ops := decodeRegionOps(data)
	r := newRegionRun(tb, sc)
	for i, op := range ops {
		r.apply(i, op)
	}
	addStats(&r.total, r.c.Stats())
	return r.total
}

// regionSeedOps is the seeded op stream of the property suite: one config
// byte, then n ops.
func regionSeedOps(config byte, seed uint64, n int) []byte {
	rng := testRNG{s: seed}
	data := []byte{config}
	for len(data) < 1+3*n {
		data = append(data, byte(rng.next()))
	}
	return data
}

// TestRegionLifecycleProperty runs seeded op sequences over LRU and FIFO,
// the read index off and on, and stores that keep flushed buffers or copy;
// successive seeds of a configuration hold one, two and three region
// buffers.
func TestRegionLifecycleProperty(t *testing.T) {
	const seeds, ops = 18, 250
	for i := 0; i < 8; i++ {
		config := i&1 | i>>1<<2 // configuration bits 0, 2 and 3
		sc, _ := decodeRegionOps([]byte{byte(config)})
		t.Run(strings.TrimSuffix(sc.String(), "/buffers=1"), func(t *testing.T) {
			var total Stats
			for seed := 0; seed < seeds; seed++ {
				b := byte(config | seed%3<<4)
				addStats(&total, runRegionOps(t, regionSeedOps(b, uint64(seed*7919+config), ops)))
			}
			if total.Hits == 0 || total.Evictions == 0 || total.Quarantined == 0 || total.RestoreDrops == 0 ||
				total.CoDesignDrops == 0 {
				t.Fatalf("%d hits, %d evictions, %d quarantines, %d restore drops, %d co-design drops: the runs exercised too little",
					total.Hits, total.Evictions, total.Quarantined, total.RestoreDrops, total.CoDesignDrops)
			}
		})
	}
}

// FuzzRegionOps feeds the property suite's decoder arbitrary bytes: no op
// sequence may panic a transition or break an invariant.
func FuzzRegionOps(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(regionSeedOps(byte(seed*37), seed, 120))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runRegionOps(t, data)
	})
}
