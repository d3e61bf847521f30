package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"strconv"
	"time"

	"znscache/internal/cache"
	"znscache/internal/obs"
)

// This file is the raw-speed serving path (DESIGN.md §12): commands are
// parsed into a per-connection batch without executing them, the batch is
// executed at the pipeline boundary with shard-affinity dispatch (each
// shard's write lock is taken at most once per phase, and the gets run
// lock-free, all on the connection goroutine), and the responses are
// rendered in request order into a reusable response ring flushed with one
// writev.

// ShardedBackend is the Backend extension the dispatch path needs: a
// shard-partitioned store whose mutations can be grouped per shard and
// applied in one critical section. znscache.ShardedCache implements it; a
// backend without it (the benchmark's no-op backend) is served inline, one
// op at a time.
type ShardedBackend interface {
	Backend
	// NumShards returns the shard count.
	NumShards() int
	// ShardFor returns the shard index key maps to.
	ShardFor(key string) int
	// ExecShard runs fn against shard i's engine under that shard's write
	// lock. Connection goroutines call it concurrently; the lock orders
	// them. It returns an error (without running fn) when the backend can
	// no longer execute (closed).
	ExecShard(shard int, fn func(*cache.Cache)) error
}

// op kinds.
const (
	opGet uint8 = iota
	opSet
	opDel
	opStats
	opVersion
	opMsg // pre-decided response line (protocol errors)
)

// set execution modes (memcached exptime semantics resolved at parse time,
// except setTTLAbs whose remaining TTL depends on the owning shard's clock
// and is therefore resolved at execution time).
const (
	setStore uint8 = iota
	setTTL
	setTTLAbs // op.ttl is a deadline on the backend clock, not a TTL
	setDelete // exptime in the past: observably identical to a delete
)

// Canned protocol error lines (full responses, CRLF included).
const (
	msgBadFormat = "CLIENT_ERROR bad command line format\r\n"
	msgBadLen    = "CLIENT_ERROR bad data chunk length\r\n"
	msgBadChunk  = "CLIENT_ERROR bad data chunk\r\n"
	msgBadKey    = "CLIENT_ERROR bad key\r\n"
	msgTooLarge  = "SERVER_ERROR object too large for cache\r\n"
)

// Batch caps: a batch executes early (without flushing, so the one-flush-
// per-pipeline-batch invariant holds) when it accumulates this many ops or
// buffered set bodies, bounding memory under deep pipelines.
const (
	maxBatchOps  = 256
	maxBatchBody = 4 << 20
)

// op is one parsed command awaiting execution, plus its execution results.
type op struct {
	kind    uint8
	setMode uint8
	noreply bool
	withCas bool
	shard   int32
	k0, k1  int           // opGet: key span in batch.keys
	key     string        // opSet/opDel key
	body    []byte        // opSet: flags-prefixed value in batch.bodies
	ttl     time.Duration // opSet: TTL (setTTL) or backend-clock deadline (setTTLAbs)
	msg     string        // opMsg response line
	err     error         // opSet execution error
	found   bool          // opDel execution result
}

// batch accumulates one pipeline batch worth of parsed ops. Get keys and
// their results live in parallel slices indexed by op.k0..k1 so per-key
// storage is reused across batches, and set bodies in an arena that the
// next batch reads over: a Backend keeps no value past its call.
type batch struct {
	ops       []op
	keys      []string
	vals      [][]byte
	hits      []bool
	errs      []error
	bodies    []byte
	bodyBytes int
}

// maxBodyArena is the body arena capacity a connection keeps between
// batches; a larger one, grown for a burst of big sets, is dropped.
const maxBodyArena = 1 << 20

func (b *batch) addMsg(msg string) {
	b.ops = append(b.ops, op{kind: opMsg, msg: msg})
}

// body returns n bytes of the body arena, capped at n. An arena too small is
// replaced by a larger one rather than grown in place: bodies already handed
// out keep pointing at the old array.
func (b *batch) body(n int) []byte {
	off := len(b.bodies)
	if cap(b.bodies)-off < n {
		b.bodies = make([]byte, 0, max(2*cap(b.bodies), n, 4<<10))
		off = 0
	}
	b.bodies = b.bodies[:off+n]
	return b.bodies[off : off+n : off+n]
}

// reset clears the batch for reuse, dropping references so values are
// released to the collector; the body arena is read over by the next batch.
func (b *batch) reset() {
	for i := range b.ops {
		b.ops[i] = op{}
	}
	b.ops = b.ops[:0]
	for i := range b.keys {
		b.keys[i] = ""
	}
	b.keys = b.keys[:0]
	for i := range b.vals {
		b.vals[i] = nil
	}
	b.vals = b.vals[:0]
	b.hits = b.hits[:0]
	for i := range b.errs {
		b.errs[i] = nil
	}
	b.errs = b.errs[:0]
	b.bodies = b.bodies[:0]
	if cap(b.bodies) > maxBodyArena {
		b.bodies = nil
	}
	b.bodyBytes = 0
}

// respWriter is the per-connection response ring: response bytes accumulate
// in a reusable arena (small value payloads are copied in, large ones ride
// as zero-copy segments), and a flush materializes the segment list as one
// net.Buffers writev. Nothing allocates per response in steady state.
type respWriter struct {
	arena []byte
	segs  []respSeg
	bufs  net.Buffers
}

// respSeg is one output segment: an arena span (ext nil) or an external
// zero-copy slice.
type respSeg struct {
	off, end int
	ext      []byte
}

// extMinLen is the payload size above which a value is emitted as its own
// writev segment instead of being copied into the arena.
const extMinLen = 512

func (w *respWriter) str(s string) {
	off := len(w.arena)
	w.arena = append(w.arena, s...)
	w.note(off, len(w.arena))
}

func (w *respWriter) bytes(p []byte) {
	if len(p) >= extMinLen {
		w.segs = append(w.segs, respSeg{ext: p})
		return
	}
	off := len(w.arena)
	w.arena = append(w.arena, p...)
	w.note(off, len(w.arena))
}

func (w *respWriter) bytec(c byte) {
	off := len(w.arena)
	w.arena = append(w.arena, c)
	w.note(off, len(w.arena))
}

func (w *respWriter) uint(u uint64) {
	off := len(w.arena)
	w.arena = strconv.AppendUint(w.arena, u, 10)
	w.note(off, len(w.arena))
}

// note records an arena span, coalescing with a preceding contiguous arena
// segment so a batch of small responses flushes as a single iovec.
func (w *respWriter) note(off, end int) {
	if n := len(w.segs); n > 0 {
		last := &w.segs[n-1]
		if last.ext == nil && last.end == off {
			last.end = end
			return
		}
	}
	w.segs = append(w.segs, respSeg{off: off, end: end})
}

func (w *respWriter) empty() bool { return len(w.segs) == 0 }

func (w *respWriter) reset() {
	w.arena = w.arena[:0]
	for i := range w.segs {
		w.segs[i].ext = nil
	}
	w.segs = w.segs[:0]
	// Don't let one giant batch pin a giant arena for the connection's life.
	if cap(w.arena) > 1<<20 {
		w.arena = nil
	}
}

// parseResult is parseCommand's verdict for the connection loop.
type parseResult uint8

const (
	parseOK    parseResult = iota
	parseQuit              // clean client-requested close
	parseFatal             // stream can no longer be trusted; close after flush
)

// parseCommand parses one command line into the connection's batch. Set
// bodies are consumed from the stream here (they follow the command line);
// execution of everything else is deferred to the batch boundary. Protocol
// errors become pre-rendered ops so responses keep request order.
func (s *Server) parseCommand(c *conn, br *bufio.Reader, line []byte) parseResult {
	b := &c.b
	c.fields = fieldsInto(c.fields[:0], line)
	if len(c.fields) == 0 {
		s.m.protoErrors.Inc()
		b.addMsg(respError)
		return parseOK
	}
	switch string(c.fields[0]) {
	case "get":
		s.parseGet(c, false)
	case "gets":
		s.parseGet(c, true)
	case "set":
		return s.parseSet(c, br)
	case "delete":
		s.parseDelete(c)
	case "stats":
		s.m.other.Inc()
		b.ops = append(b.ops, op{kind: opStats})
		// stats must observe every earlier op's effect and none of any
		// later one: close the batch so it renders last over a fully
		// applied backend.
		s.execBatch(c)
	case "version":
		s.m.other.Inc()
		b.ops = append(b.ops, op{kind: opVersion})
	case "quit":
		s.m.other.Inc()
		return parseQuit
	default:
		s.m.other.Inc()
		s.m.protoErrors.Inc()
		b.addMsg(respError)
	}
	if len(b.ops) >= maxBatchOps || b.bodyBytes >= maxBatchBody {
		s.execBatch(c)
	}
	return parseOK
}

// parseGet queues a get/gets over one or more keys. Keys are validated
// before anything is queued so an error response is never spliced into a
// data stream.
func (s *Server) parseGet(c *conn, withCas bool) {
	b := &c.b
	keys := c.fields[1:]
	if len(keys) == 0 {
		s.m.protoErrors.Inc()
		b.addMsg(respError)
		return
	}
	for _, k := range keys {
		if !validKey(k) {
			s.m.protoErrors.Inc()
			b.addMsg(msgBadKey)
			return
		}
	}
	k0 := len(b.keys)
	for _, k := range keys {
		b.keys = append(b.keys, string(k))
	}
	b.ops = append(b.ops, op{kind: opGet, withCas: withCas, k0: k0, k1: len(b.keys)})
}

// parseSet consumes "set <key> <flags> <exptime> <bytes> [noreply]" plus its
// data chunk. The bytes field is parsed first: without it the stream cannot
// be resynced past the body, so a bad length is fatal; every other malformed
// field is reported after the body has been consumed and the connection
// survives. The body is read once, into the batch's body arena, behind room
// for the 4-byte flags prefix the value is stored with.
func (s *Server) parseSet(c *conn, br *bufio.Reader) parseResult {
	b := &c.b
	args := c.fields[1:]
	s.m.sets.Inc()
	if len(args) < 4 || len(args) > 5 {
		s.m.protoErrors.Inc()
		b.addMsg(msgBadFormat)
		return parseFatal
	}
	n64, lenErr := parseUintBytes(args[3], 31)
	if lenErr != nil {
		s.m.protoErrors.Inc()
		b.addMsg(msgBadLen)
		return parseFatal
	}
	n := int(n64)
	noreply := len(args) == 5 && string(args[4]) == "noreply"
	// The remaining fields must come off the line NOW: args alias the
	// reader's internal buffer, and the body read below overwrites it. The
	// resulting errors are still reported after the body is consumed, the
	// classic precedence.
	key := string(args[0])
	flags, ferr := parseUintBytes(args[1], 32)
	exptime, eerr := parseIntBytes(args[2])
	badFmt := !validKey(args[0]) || ferr != nil || eerr != nil || (len(args) == 5 && !noreply)

	if n > s.cfg.MaxValueBytes {
		// Swallow the declared body to stay in sync, then refuse (memcached
		// keeps the connection for oversized objects).
		ok, badChunk := s.discardBody(c, br, int64(n))
		if !ok {
			if badChunk {
				s.m.protoErrors.Inc()
				b.addMsg(msgBadChunk)
			}
			return parseFatal
		}
		s.m.protoErrors.Inc()
		if !noreply {
			b.addMsg(msgTooLarge)
		}
		return parseOK
	}
	body := b.body(4 + n + 2)
	if s.readBody(c, br, body[4:]) != nil {
		return parseFatal // transport failure mid-body; nothing sane to reply
	}
	if body[4+n] != '\r' || body[4+n+1] != '\n' {
		s.m.protoErrors.Inc()
		b.addMsg(msgBadChunk)
		return parseFatal
	}

	if badFmt {
		s.m.protoErrors.Inc()
		if !noreply {
			b.addMsg(msgBadFormat)
		}
		return parseOK
	}
	binary.BigEndian.PutUint32(body, uint32(flags))
	o := op{kind: opSet, noreply: noreply, key: key, body: body[: 4+n : 4+n]}
	switch {
	case exptime == 0:
		o.setMode = setStore
	case exptime < 0:
		o.setMode = setDelete
	case exptime <= relativeExpCutoff:
		o.setMode = setTTL
		o.ttl = time.Duration(exptime) * time.Second
	default:
		// Absolute unix exptime: convert to a backend-clock deadline now,
		// but resolve the remaining TTL at execution time on the owning
		// shard's clock (execTTLAbs) so it lands on the same clock as
		// relative TTLs.
		if deadline := s.expDeadline(exptime); deadline <= 0 {
			o.setMode = setDelete
		} else {
			o.setMode = setTTLAbs
			o.ttl = deadline
		}
	}
	b.bodyBytes += len(body)
	b.ops = append(b.ops, o)
	if len(b.ops) >= maxBatchOps || b.bodyBytes >= maxBatchBody {
		s.execBatch(c)
	}
	return parseOK
}

// parseDelete queues "delete <key> [noreply]".
func (s *Server) parseDelete(c *conn) {
	b := &c.b
	args := c.fields[1:]
	s.m.deletes.Inc()
	noreply := len(args) == 2 && string(args[1]) == "noreply"
	if len(args) < 1 || len(args) > 2 || (len(args) == 2 && !noreply) || !validKey(args[0]) {
		s.m.protoErrors.Inc()
		if !noreply {
			b.addMsg(msgBadFormat)
		}
		return
	}
	b.ops = append(b.ops, op{kind: opDel, noreply: noreply, key: string(args[0])})
}

// execBatch applies every accumulated op to the backend and renders the
// responses, in request order, into the connection's response writer. The
// writer is flushed separately (at the pipeline batch boundary), so calling
// this mid-stream to cap batch memory does not cost an extra flush.
func (s *Server) execBatch(c *conn) {
	b := &c.b
	if len(b.ops) == 0 {
		return
	}
	started := time.Now()
	// Size the per-key result slots. Every slot is owned and written by
	// exactly one get op, so no zeroing is needed.
	if cap(b.vals) < len(b.keys) {
		b.vals = make([][]byte, len(b.keys))
		b.hits = make([]bool, len(b.keys))
		b.errs = make([]error, len(b.keys))
	} else {
		b.vals = b.vals[:len(b.keys)]
		b.hits = b.hits[:len(b.keys)]
		b.errs = b.errs[:len(b.keys)]
	}
	if s.sharded != nil {
		s.execPhases(c, b)
	} else {
		s.execInline(b)
	}
	lat := time.Since(started)
	if s.spans != nil {
		s.spanExec(c, b, lat)
	}
	s.renderBatch(c, b, lat)
	b.reset()
}

// spanExec folds one executed batch into the connection's span. The
// execution window splits as queue_wait (the shard-lock waits of the
// batch's write groups, summed into c.qwait: the groups run one after
// another inside the window) plus exec (everything else), so queue_wait +
// exec always equals the batch's server_request_latency observation
// exactly. The first op of the pipeline batch supplies the slow-request
// exemplar identity.
func (s *Server) spanExec(c *conn, b *batch, lat time.Duration) {
	qw := c.qwait
	c.qwait = 0
	c.sp.Add(obs.StageQueueWait, qw)
	c.sp.Add(obs.StageExec, lat-qw)
	c.spExec += lat
	if c.spanOps == 0 {
		o := &b.ops[0]
		switch o.kind {
		case opGet:
			c.spanVerb = "get"
			c.spanKey = b.keys[o.k0]
			if s.sharded != nil {
				c.spanShard = int32(s.sharded.ShardFor(c.spanKey))
			}
		case opSet:
			c.spanVerb = "set"
			c.spanKey = o.key
			c.spanShard = o.shard
		case opDel:
			c.spanVerb = "delete"
			c.spanKey = o.key
			c.spanShard = o.shard
		default:
			c.spanVerb = "other"
		}
	}
	c.spanOps += len(b.ops)
}

// finishSpan settles the connection's span at the pipeline batch boundary
// (after the flush). Outside a span-enabled server, or when nothing
// executed since the last settle, it is a no-op.
func (s *Server) finishSpan(c *conn) {
	rec := s.spans
	if rec == nil || c.spanOps == 0 {
		return
	}
	rec.Settle(&c.sp, rec.SampleNow(), obs.SlowRequest{
		Verb:     c.spanVerb,
		Key:      c.spanKey,
		Shard:    int(c.spanShard),
		BatchOps: c.spanOps,
	})
	c.sp.Reset()
	c.spanOps = 0
	c.spanVerb, c.spanKey, c.spanShard = "", "", 0
}

// execInline serves a backend that is not a ShardedBackend: ops run one at
// a time in request order. With no shard clock, absolute exptimes resolve
// on the wall clock measured from WallBase.
func (s *Server) execInline(b *batch) {
	be := s.cfg.Backend
	for i := range b.ops {
		o := &b.ops[i]
		switch o.kind {
		case opGet:
			for j := o.k0; j < o.k1; j++ {
				b.vals[j], b.hits[j], b.errs[j] = be.Get(b.keys[j])
			}
		case opSet:
			switch o.setMode {
			case setStore:
				o.err = be.Set(o.key, o.body)
			case setTTL:
				o.err = be.SetWithTTL(o.key, o.body, o.ttl)
			case setTTLAbs:
				if ttl := o.ttl - time.Since(s.wallBase); ttl <= 0 {
					be.Delete(o.key)
				} else {
					o.err = be.SetWithTTL(o.key, o.body, ttl)
				}
			case setDelete:
				be.Delete(o.key)
			}
		case opDel:
			o.found = be.Delete(o.key)
		}
	}
}

// execPhases executes a batch against a sharded backend. A phase applies
// its writes before its gets, so a get observes every earlier write of the
// batch; to keep it from observing a later one, a write of a key that an
// earlier get in the phase read starts a new phase. Write-after-write on one
// key needs no split: same key means same shard, and a shard group applies
// its ops in request order.
func (s *Server) execPhases(c *conn, b *batch) {
	r := c.phaseR
	clear(r)
	p0 := 0
	for i := range b.ops {
		o := &b.ops[i]
		switch o.kind {
		case opGet:
			for j := o.k0; j < o.k1; j++ {
				r[b.keys[j]] = struct{}{}
			}
		case opSet, opDel:
			if _, ok := r[o.key]; ok {
				s.execPhase(c, b, p0, i)
				p0 = i
				clear(r)
			}
		}
	}
	s.execPhase(c, b, p0, len(b.ops))
}

// execPhase runs one phase on the connection goroutine: write ops are
// grouped by shard and each group applied in one critical section (the
// shard's write lock is taken at most once per phase), then the gets run
// over the lock-free read path. Only get ops append keys, so the
// phase's gets own one contiguous span b.keys[k0:k1], handed to a
// MultiGetter backend in one call.
func (s *Server) execPhase(c *conn, b *batch, lo, hi int) {
	if lo >= hi {
		return
	}
	sb := s.sharded
	active := c.active[:0]
	hasGets := false
	k0, k1 := 0, 0
	for i := lo; i < hi; i++ {
		o := &b.ops[i]
		switch o.kind {
		case opGet:
			if !hasGets {
				k0 = o.k0
			}
			k1 = o.k1
			hasGets = true
		case opSet, opDel:
			sh := sb.ShardFor(o.key)
			o.shard = int32(sh)
			if len(c.groups[sh]) == 0 {
				active = append(active, sh)
			}
			c.groups[sh] = append(c.groups[sh], int32(i))
		}
	}
	for _, sh := range active {
		s.execShardGroup(c, sh)
	}
	if hasGets && s.multi != nil {
		s.multi.GetMulti(b.keys[k0:k1], b.vals[k0:k1], b.hits[k0:k1], b.errs[k0:k1])
	} else {
		for j := k0; j < k1; j++ {
			b.vals[j], b.hits[j], b.errs[j] = s.cfg.Backend.Get(b.keys[j])
		}
	}
	s.m.dispatchPhases.Inc()
	s.m.dispatchGroups.Add(uint64(len(active)))
	for _, sh := range active {
		c.groups[sh] = c.groups[sh][:0]
	}
	c.active = active[:0]
}

// execShardGroup applies the connection's write group for shard in a single
// critical section, in request order. With spans on, the wait for the
// shard's lock (ExecShard entry to fn start) adds to c.qwait.
func (s *Server) execShardGroup(c *conn, shard int) {
	b, idxs := &c.b, c.groups[shard]
	var t0 time.Time
	if s.spans != nil {
		t0 = time.Now()
	}
	err := s.sharded.ExecShard(shard, func(eng *cache.Cache) {
		if s.spans != nil {
			c.qwait += time.Since(t0)
		}
		for _, i := range idxs {
			o := &b.ops[i]
			switch o.kind {
			case opSet:
				switch o.setMode {
				case setStore:
					o.err = eng.Set(o.key, o.body, 0)
				case setTTL:
					o.err = eng.SetTTL(o.key, o.body, 0, o.ttl)
				case setTTLAbs:
					if ttl := o.ttl - eng.Clock().Now(); ttl <= 0 {
						eng.Delete(o.key)
					} else {
						o.err = eng.SetTTL(o.key, o.body, 0, ttl)
					}
				case setDelete:
					eng.Delete(o.key)
				}
			case opDel:
				o.found = eng.Delete(o.key)
			}
		}
	})
	if err != nil {
		// Backend closed: sets report the error, deletes report not-found —
		// the same answers the per-op Backend methods give.
		for _, i := range idxs {
			if o := &b.ops[i]; o.kind == opSet && o.err == nil {
				o.err = err
			}
		}
	}
}

// renderBatch writes every op's response, in request order, into the
// response ring, and settles the per-request metrics. Every request in a
// batch observes the batch's execution latency — the client-visible shape
// of pipelined serving.
func (s *Server) renderBatch(c *conn, b *batch, lat time.Duration) {
	w := &c.rw
	m := &s.m
	m.batches.Inc()
	m.batchOps.Add(uint64(len(b.ops)))
	m.observeBatchSize(len(b.ops))
	if s.cfg.SlowThreshold > 0 && lat >= s.cfg.SlowThreshold {
		m.slowRequests.Add(uint64(len(b.ops)))
	}
	var nGet, nSet, nDel int
	for i := range b.ops {
		o := &b.ops[i]
		switch o.kind {
		case opGet:
			nGet++
			s.renderGet(w, b, o)
		case opSet:
			nSet++
			if o.noreply {
				break
			}
			if o.err != nil {
				writeServerError(w, o.err.Error())
			} else {
				w.str(respStored)
			}
		case opDel:
			nDel++
			if o.noreply {
				break
			}
			if o.found {
				w.str(respDeleted)
			} else {
				w.str(respNotFound)
			}
		case opStats:
			s.handleStats(w)
		case opVersion:
			w.str("VERSION " + Version + crlf)
		case opMsg:
			w.str(o.msg)
		}
	}
	// Every request in a batch observes the batch's execution latency — the
	// client-visible shape of pipelined serving — batched as one histogram
	// lock round trip per verb instead of one per op.
	m.reqLatency.ObserveN(lat, len(b.ops))
	m.reqLatVerb[verbGet].ObserveN(lat, nGet)
	m.reqLatVerb[verbSet].ObserveN(lat, nSet)
	m.reqLatVerb[verbDelete].ObserveN(lat, nDel)
}

// renderGet writes one get/gets response: VALUE blocks for the hits in
// request key order, then END. A backend error truncates the response
// (SERVER_ERROR instead of END), the classic behaviour.
func (s *Server) renderGet(w *respWriter, b *batch, o *op) {
	m := &s.m
	for j := o.k0; j < o.k1; j++ {
		m.gets.Inc()
		if b.errs[j] != nil {
			writeServerError(w, b.errs[j].Error())
			return
		}
		if !b.hits[j] {
			m.getMisses.Inc()
			continue
		}
		m.getHits.Inc()
		flags, data := decodeValue(b.vals[j])
		w.str("VALUE ")
		w.str(b.keys[j])
		w.bytec(' ')
		w.uint(uint64(flags))
		w.bytec(' ')
		w.uint(uint64(len(data)))
		if o.withCas {
			w.bytec(' ')
			w.uint(casOf(data))
		}
		w.str(crlf)
		w.bytes(data)
		w.str(crlf)
	}
	w.str(respEnd)
}

// flushResp materializes the response ring as one writev under the write
// deadline. Byte accounting is manual: the vectored write goes to the raw
// connection so net.Buffers reaches the TCPConn's writev path.
func (s *Server) flushResp(c *conn) error {
	w := &c.rw
	if w.empty() {
		// A noreply-only batch produces no bytes but still executed: the
		// span settles here all the same.
		s.finishSpan(c)
		return nil
	}
	s.m.flushes.Inc()
	w.bufs = w.bufs[:0]
	for _, seg := range w.segs {
		if seg.ext != nil {
			w.bufs = append(w.bufs, seg.ext)
		} else {
			w.bufs = append(w.bufs, w.arena[seg.off:seg.end])
		}
	}
	c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
	var t0 time.Time
	if s.spans != nil {
		t0 = time.Now()
	}
	n, err := w.bufs.WriteTo(c.nc)
	if s.spans != nil {
		c.sp.Add(obs.StageFlush, time.Since(t0))
	}
	if n > 0 {
		s.m.bytesOut.Add(uint64(n))
	}
	w.reset()
	s.finishSpan(c)
	return err
}

// fieldsInto splits line into ASCII-whitespace-separated fields appended to
// dst, allocation-free (fields alias line; copy anything that outlives it).
func fieldsInto(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		dst = append(dst, line[i:j])
		i = j
	}
	return dst
}

// spaceTab marks the bytes fieldsInto splits on: one load per byte instead
// of a chain of compares, on every request line and every VALUE line.
var spaceTab = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}

func asciiSpace(b byte) bool { return spaceTab[b] }

// parseUintBytes parses a decimal uint of at most bits bits without
// allocating. Mirrors strconv.ParseUint's syntax/range failures for the
// inputs the protocol sees.
func parseUintBytes(p []byte, bits int) (uint64, error) {
	if len(p) == 0 || len(p) > 20 {
		return 0, strconv.ErrSyntax
	}
	var v uint64
	max := uint64(1)<<uint(bits) - 1
	for _, ch := range p {
		if ch < '0' || ch > '9' {
			return 0, strconv.ErrSyntax
		}
		v = v*10 + uint64(ch-'0')
		if v > max {
			return 0, strconv.ErrRange
		}
	}
	return v, nil
}

// parseIntBytes parses a decimal int64 without allocating.
func parseIntBytes(p []byte) (int64, error) {
	neg := false
	if len(p) > 0 && (p[0] == '-' || p[0] == '+') {
		neg = p[0] == '-'
		p = p[1:]
	}
	v, err := parseUintBytes(p, 63)
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}
