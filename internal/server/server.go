// Package server is the network serving layer: a memcached-text-protocol
// front door over the thread-safe sharded cache, plus the pipelined client
// and closed/open-loop load generator that drive it. It turns the simulated
// persistent cache into something a real workload can talk to — the shape
// CacheLib deployments have (a cache process serving get/set/delete over
// TCP), so serving-path effects (connection handling, pipelining, response
// batching, graceful shutdown) are measurable alongside the device-level
// ones the paper studies.
//
// The protocol is the memcached text dialect: get/gets (multi-key), set
// (with flags, exptime, and noreply), delete, stats, version, quit. Client
// flags ride inside the stored value as a 4-byte big-endian prefix, so the
// cache backend needs no schema beyond key→bytes. Expiration times follow
// memcached's rule — values up to 30 days are relative seconds, larger
// values are absolute unix times — with one simulation-honest twist: both
// forms are measured on the owning shard's simulated clock, the same clock
// the cache's own TTL machinery uses. Absolute exptimes are anchored by
// Config.WallBase (the wall instant declared to be shard time zero) and
// resolved against ShardClocked.ShardNow at execution time, so a pinned
// WallBase makes same-seed replays with absolute exptimes deterministic.
//
// Concurrency model: one goroutine per connection does all of that
// connection's work — read, parse, execute (a sharded backend's write groups
// under each shard's lock, then the gets) and flush — so parallelism across
// shards comes from connections, as in memcached's thread-per-connection
// model. A batch ends when the read buffer is empty: the client's pipeline
// has been read, so a pipelined batch of N requests costs one execution pass
// and one flush, not N. A connection limit is enforced as accept
// backpressure (the semaphore is taken before Accept, so excess connections
// queue in the kernel instead of being churned through accept/close).
// Graceful shutdown stops accepting, lets every in-flight request finish and
// flush, and only then returns, so the process can snapshot the cache
// knowing no accepted work was dropped.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/obs"
	"znscache/internal/stats"
)

// Backend is the store the server fronts. znscache.ShardedCache satisfies it
// directly; tests substitute a map. Implementations must be safe for
// concurrent use — the server calls them from one goroutine per connection.
type Backend interface {
	// Get returns the value for key and whether it was present. The server
	// only reads the value, until the response carrying it is written.
	Get(key string) ([]byte, bool, error)
	// Set inserts or replaces key. value is valid only during the call: it
	// lies in the connection's body arena, which the next batch reads over,
	// so a backend that keeps it copies it. The same holds for SetWithTTL
	// and for ExecShard's engine calls.
	Set(key string, value []byte) error
	// SetWithTTL inserts key with a time-to-live.
	SetWithTTL(key string, value []byte, ttl time.Duration) error
	// Delete removes key, reporting whether it was present.
	Delete(key string) bool
	// Len returns the number of cached items (served as curr_items).
	Len() int
}

// ShardClocked is an optional Backend extension for backends whose TTLs run
// on per-shard simulated clocks (znscache.ShardedCache). ShardNow reports the
// owning shard's current simulated time, so absolute memcached exptimes
// resolve on the very clock the relative ones already use: simulated instant
// Config.WallBase + ShardNow(key). Without it, absolute exptimes fall back to
// the wall clock (time.Since(WallBase) cancels WallBase out exactly), the
// right reading for a backend whose TTLs are wall-clock anyway.
type ShardClocked interface {
	// ShardNow returns the current simulated time of the shard owning key.
	ShardNow(key string) time.Duration
}

// MultiGetter is an optional Backend extension: fetch many keys in one call.
// znscache.ShardedCache implements it to account a batch's lock-free
// lookups once per shard. The three result slices are parallel to keys and
// fully owned by the caller; every slot must be written (hit, miss, or
// error).
type MultiGetter interface {
	GetMulti(keys []string, vals [][]byte, hits []bool, errs []error)
}

// Config parameterizes a Server. Zero values select the defaults noted on
// each field.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Backend serves the data. Required.
	Backend Backend
	// MaxConns caps concurrently served connections (default 1024). The cap
	// is applied as accept backpressure: connection attempts beyond it wait
	// in the kernel's accept queue rather than being refused.
	MaxConns int
	// MaxLineBytes bounds one command line, CRLF included (default 4096). A
	// longer line is a protocol error that closes the offending connection.
	// It does not size the read buffer, which holds
	// max(MaxLineBytes, readBufBytes).
	MaxLineBytes int
	// MaxValueBytes bounds one stored value (default 1 MiB, memcached's
	// classic limit). An oversized set is swallowed and refused with
	// SERVER_ERROR; the connection survives.
	MaxValueBytes int
	// IdleTimeout closes a connection with no in-flight request after this
	// long (default 5 minutes).
	IdleTimeout time.Duration
	// ReadTimeout bounds each read while a request is in flight — a value
	// body, or the rest of a partially received line (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush (default 30s).
	WriteTimeout time.Duration
	// StatsExtra, when set, contributes extra STAT lines (sorted by name)
	// to the stats command — the cacheserver wires cache-level numbers
	// (hit ratio, write amplification) through it.
	StatsExtra func() map[string]string
	// SlowThreshold is the batch execution latency at or above which each
	// of the batch's requests counts into server_slow_requests_total (0
	// disables the count). The slow-request record itself, with stages and
	// identity, is the Spans recorder's exemplar log.
	SlowThreshold time.Duration
	// Spans, when non-nil, enables request-stage span collection: per-batch
	// sock_read/parse/queue_wait/exec/flush durations settle into the
	// recorder's histograms (sampled) and slow-request exemplar log. Nil
	// costs one pointer test per site on the serving path.
	Spans *obs.SpanRecorder
	// WallBase anchors absolute memcached exptimes (unix times past the
	// 30-day cutoff) to the backend's clock: an absolute exptime T becomes
	// the deadline T − WallBase on the owning shard's clock (ShardClocked
	// backends) or on the wall clock measured from WallBase (plain
	// backends — algebraically identical to time.Until(T)). Zero means
	// "now" at New. Pinning it makes same-seed replays with absolute
	// exptimes deterministic: the simulated instant each exptime maps to no
	// longer depends on when the process started.
	WallBase time.Time
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 4096
	}
	if c.MaxValueBytes <= 0 {
		c.MaxValueBytes = 1 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
}

// Connection states, used by the shutdown path to decide who to wake.
const (
	// connBusy: parsing or serving a request; shutdown leaves it alone.
	connBusy int32 = iota
	// connIdle: blocked waiting for a new command with nothing buffered;
	// shutdown wakes it with an expired read deadline.
	connIdle
	// connGrace: draining, giving bytes that raced the wakeup one short
	// final read before the close.
	connGrace
)

// graceRead is how long a draining connection waits for request bytes that
// raced the shutdown wakeup (written by the client before it could observe
// the close). Loopback and LAN round trips are far below this.
const graceRead = 20 * time.Millisecond

// pokeInterval is how often the shutdown loop re-arms expired read deadlines
// on idle connections (a connection can slip back to idle after a poke).
const pokeInterval = 25 * time.Millisecond

// readBufBytes is the smallest read buffer a connection gets. An empty
// buffer is the batch boundary, and bufio reads a body remainder at least
// the buffer's size straight into the body, leaving the buffer empty: so
// pipelined set bodies up to this size do not cut the client's pipeline
// into several batches.
const readBufBytes = 16 << 10

// conn is one served connection, including its reusable batch-serving state
// (see dispatch.go): parsed-op batch, response ring, and the scratch used by
// the shard-affinity dispatcher. All of it is touched only by the connection
// goroutine, which runs the batch's shard write groups itself.
type conn struct {
	nc    net.Conn
	state atomic.Int32
	// partial accumulates a command line across read deadlines: a deadline
	// can fire mid-line, and bufio consumes the fragment into the caller.
	partial []byte

	fields [][]byte   // tokenizer scratch, aliases the current line
	b      batch      // parsed ops awaiting the batch boundary
	rw     respWriter // response ring, flushed once per batch

	// Span state (Config.Spans non-nil only). sp accumulates the current
	// pipeline batch's stage durations; it settles in flushResp. The
	// identity fields carry the batch's first op into the slow-request
	// exemplar. qwait sums the executing batch's shard-lock waits;
	// spExec subtracts nested execBatch time out of the parse stage.
	sp        obs.Span
	spanOps   int
	spanVerb  string
	spanKey   string
	spanShard int32
	spExec    time.Duration
	qwait     time.Duration

	// Shard-dispatch scratch (sharded backends only).
	phaseR map[string]struct{} // keys read in the current phase
	groups [][]int32           // per-shard op-index groups
	active []int               // shards with a non-empty group
}

// Server is a memcached-protocol TCP server over a Backend.
type Server struct {
	cfg Config
	ln  net.Listener

	mu    sync.Mutex
	conns map[*conn]struct{}

	wg       sync.WaitGroup
	sem      chan struct{}
	draining atomic.Bool
	stop     chan struct{} // closed by Shutdown to unblock the accept loop
	start    time.Time
	wallBase time.Time // Config.WallBase resolved (zero → start)

	// sharded is non-nil when Backend also implements ShardedBackend; it
	// enables the phase-split shard-affinity dispatch path (dispatch.go).
	// clocked is non-nil when Backend implements ShardClocked; absolute
	// exptimes then resolve on the shard clock instead of the wall clock.
	// multi is non-nil when Backend implements MultiGetter; multi-key gets
	// on the inline path, and every phase's gets on the sharded path, then
	// execute as one batched backend call.
	clocked ShardClocked
	multi   MultiGetter
	sharded ShardedBackend

	// spans is cfg.Spans.
	spans *obs.SpanRecorder

	m metrics
}

// New validates cfg, binds the listener, and returns a server ready for
// Serve. The listener is bound here so Addr is immediately meaningful.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("server: Config.Backend is required")
	}
	cfg.fillDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*conn]struct{}),
		sem:   make(chan struct{}, cfg.MaxConns),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	s.m.init()
	s.wallBase = cfg.WallBase
	if s.wallBase.IsZero() {
		s.wallBase = s.start
	}
	s.spans = cfg.Spans
	if cb, ok := cfg.Backend.(ShardClocked); ok {
		s.clocked = cb
	}
	if mg, ok := cfg.Backend.(MultiGetter); ok {
		s.multi = mg
	}
	if sb, ok := cfg.Backend.(ShardedBackend); ok && sb.NumShards() > 0 {
		s.sharded = sb
	}
	return s, nil
}

// Addr returns the bound listen address ("127.0.0.1:53412").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Shutdown. It returns nil after a shutdown
// and the accept error otherwise. Each connection is served by its own
// goroutine; the connection-limit semaphore is acquired before Accept, so a
// full server exerts backpressure instead of churning accepts.
func (s *Server) Serve() error {
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return nil
		}
		nc, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if s.draining.Load() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.draining.Load() {
			// Shutdown won the race: it already swept s.conns, so this
			// connection would never be woken. Refuse it here.
			s.mu.Unlock()
			nc.Close() //nolint:errcheck
			<-s.sem
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.m.connsTotal.Inc()
		s.m.connsOpen.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown gracefully stops the server: no new connections are accepted,
// idle connections are woken and closed, and in-flight requests run to
// completion with their responses flushed. It returns nil once every
// connection has drained. If ctx expires first, all remaining connections
// are force-closed and ctx's error is returned; a request stuck inside the
// backend at that point is abandoned mid-serve (its connection is severed).
//
// Shutdown is idempotent; concurrent calls all wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.stop)
		s.ln.Close() //nolint:errcheck
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	past := time.Unix(1, 0) // any past time expires the read immediately
	tick := time.NewTicker(pokeInterval)
	defer tick.Stop()
	for {
		// Wake idle connections first so a fully idle server closes on the
		// first pass rather than after one tick.
		s.mu.Lock()
		for c := range s.conns {
			if c.state.Load() == connIdle {
				c.nc.SetReadDeadline(past) //nolint:errcheck
			}
		}
		s.mu.Unlock()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close() //nolint:errcheck
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// serveConn runs one connection's request loop. It never panics the server:
// a panic in request handling (a bug, not a client behavior) is recovered,
// counted, and closes only this connection.
func (s *Server) serveConn(c *conn) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Inc()
		}
		c.nc.Close() //nolint:errcheck
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.m.connsOpen.Add(-1)
		<-s.sem
		s.wg.Done()
	}()

	// Only reads flow through the counting wrapper: responses are written to
	// the raw connection by flushResp (so net.Buffers reaches the TCPConn's
	// writev) and counted there.
	cc := &countConn{Conn: c.nc, in: &s.m.bytesIn, out: &s.m.bytesOut}
	br := bufio.NewReaderSize(cc, max(s.cfg.MaxLineBytes, readBufBytes))
	if s.sharded != nil {
		c.groups = make([][]int32, s.sharded.NumShards())
		c.phaseR = make(map[string]struct{}, 32)
	}

	for {
		if br.Buffered() == 0 && len(c.partial) == 0 {
			// Pipeline batch boundary: every command received so far is
			// parsed, so execute the batch and pay the whole batch's one
			// flush (the pipelining tests assert batching through the batch
			// and flush counters).
			s.execBatch(c)
			if s.flushResp(c) != nil {
				return
			}
			if s.draining.Load() {
				return
			}
			c.state.Store(connIdle)
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //nolint:errcheck
		} else if br.Buffered() == 0 {
			// Mid-batch but the buffer ran dry: the next read touches the
			// socket, so arm the stall deadline. While commands are still
			// buffered the read never blocks and re-arming the deadline per
			// command would just burn timer updates on the hot path.
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) //nolint:errcheck
		}
		// Span: time the socket read only when it is part of a request — a
		// batch is in flight or bytes are already buffered. Idle waits for a
		// fresh batch's first command are client think time, not latency.
		rec := s.spans
		var t0 time.Time
		timedRead := rec != nil && (len(c.b.ops) > 0 || len(c.partial) > 0 || br.Buffered() > 0)
		if timedRead {
			t0 = time.Now()
		}
		line, err := c.readCommand(br, s.cfg.MaxLineBytes)
		c.state.Store(connBusy)
		if timedRead {
			c.sp.Add(obs.StageSockRead, time.Since(t0))
		}
		if err != nil {
			switch {
			case errors.Is(err, errLineTooLong):
				s.m.protoErrors.Inc()
				s.execBatch(c)
				writeClientError(&c.rw, "line too long")
				s.flushResp(c) //nolint:errcheck
				return
			case isTimeout(err):
				if !s.draining.Load() {
					// Idle or stalled-sender timeout. Anything parsed but
					// unanswered (a batch cut short mid-line) is served
					// before the close.
					s.execBatch(c)
					s.flushResp(c) //nolint:errcheck
					return
				}
				// Draining: the expired deadline is usually the shutdown
				// wakeup, but request bytes may have raced it. Give them one
				// short real read before closing.
				c.state.Store(connGrace)
				c.nc.SetReadDeadline(time.Now().Add(graceRead)) //nolint:errcheck
				line, err = c.readCommand(br, s.cfg.MaxLineBytes)
				c.state.Store(connBusy)
				if err != nil {
					s.execBatch(c)
					s.flushResp(c) //nolint:errcheck
					return
				}
			default:
				// EOF or transport error; answer whatever was pipelined in
				// case only the client's send side is gone.
				s.execBatch(c)
				s.flushResp(c) //nolint:errcheck
				return
			}
		}
		// Span: the parse stage is parseCommand minus any execBatch it
		// triggered internally (stats, batch caps) — that time is already
		// attributed to queue_wait/exec via c.spExec.
		var res parseResult
		if rec != nil {
			c.spExec = 0
			t0 = time.Now()
			res = s.parseCommand(c, br, line)
			if d := time.Since(t0) - c.spExec; d > 0 {
				c.sp.Add(obs.StageParse, d)
			}
		} else {
			res = s.parseCommand(c, br, line)
		}
		switch res {
		case parseOK:
		default: // quit or fatal: serve what's queued, flush, close
			s.execBatch(c)
			s.flushResp(c) //nolint:errcheck
			return
		}
	}
}

// errLineTooLong marks a command line exceeding MaxLineBytes. The stream
// cannot be resynced (the line's tail would parse as commands), so it is
// fatal to the connection.
var errLineTooLong = errors.New("server: command line too long")

// readCommand reads one \n-terminated command line of at most limit bytes
// (its \r\n included) and returns it with the trailing (\r)\n stripped. A
// read deadline can fire mid-line — bufio hands the fragment to the caller —
// so fragments accumulate in c.partial across calls and the command is lost
// only if the connection actually dies.
func (c *conn) readCommand(br *bufio.Reader, limit int) ([]byte, error) {
	frag, err := br.ReadSlice('\n')
	if err == nil {
		line := frag
		if len(c.partial) > 0 {
			line = append(c.partial, frag...)
			c.partial = nil
		}
		if len(line) > limit {
			return nil, errLineTooLong
		}
		return trimEOL(line), nil
	}
	c.partial = append(c.partial, frag...)
	// The buffer holds at least limit bytes, so a full buffer without a
	// delimiter is a too-long line, and so is a fragment of limit bytes
	// still waiting for its \n.
	if errors.Is(err, bufio.ErrBufferFull) || len(c.partial) >= limit {
		return nil, errLineTooLong
	}
	return nil, err
}

// trimEOL strips a trailing \n and optional \r.
func trimEOL(line []byte) []byte {
	n := len(line)
	if n > 0 && line[n-1] == '\n' {
		n--
	}
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n]
}

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// countConn counts raw socket bytes in each direction for the byte metrics.
type countConn struct {
	net.Conn
	in, out *stats.Counter
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(uint64(n))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(uint64(n))
	}
	return n, err
}
