package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a pipelined memcached text-protocol client: Queue* methods
// buffer requests, Exchange flushes them in one write and reads all the
// responses. It is the load generator's transport and doubles as the test
// suite's way of speaking the protocol. Not safe for concurrent use — the
// load generator runs one Client per connection goroutine.
type Client struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending []pend   // one entry per queued request
	mkeys   []string // key arena for queued multigets, spanned by pend.k0/k1
	fields  [][]byte // reused tokenizer scratch for VALUE headers
	resps   []Resp   // reused Exchange result backing array
	vals    []byte   // value arena: one Exchange's VALUE bodies, reused by the next
	// Timeout bounds each Exchange's network reads and writes (default 30s).
	Timeout time.Duration
}

// maxValArena is the value arena capacity a client keeps between exchanges;
// one that grew past it for a batch of large values is dropped, so a burst
// does not pin its memory for the connection's life.
const maxValArena = 1 << 20

// pend records one queued request: kind 'g' (single get), 'm' (multiget,
// keys in mkeys[k0:k1]), 's' (set), or 'd' (delete).
type pend struct {
	kind   byte
	k0, k1 int
}

// Resp is one request's outcome. Hit means: value found (get), stored
// (set), or key existed (delete). Err carries a server-reported error line
// verbatim (ERROR / CLIENT_ERROR ... / SERVER_ERROR ...), empty on success.
//
// Value aliases the client's value arena and is valid until the next
// Exchange (or Get, Gets, Set, Delete) on the same client, which reuses the
// arena; copy it to keep it longer. Its cap equals its len, so an append
// never writes over a neighbouring value.
type Resp struct {
	Hit   bool
	Flags uint32
	Value []byte
	Cas   uint64
	Err   string
}

// Dial connects to a cacheserver.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck
	}
	return &Client{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		Timeout: 30 * time.Second,
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// QueueGet buffers a single-key get (or gets, when withCas).
func (c *Client) QueueGet(key string, withCas bool) {
	if withCas {
		c.bw.WriteString("gets ") //nolint:errcheck
	} else {
		c.bw.WriteString("get ") //nolint:errcheck
	}
	c.bw.WriteString(key)  //nolint:errcheck
	c.bw.WriteString(crlf) //nolint:errcheck
	c.pending = append(c.pending, pend{kind: 'g'})
}

// QueueGetMulti buffers one multi-key get ("get k1 k2 ..."). The server
// answers with the hits' VALUE blocks in request order and a single END;
// Exchange expands that into one Resp per key, so response alignment matches
// the keys queued. The keys are copied — the caller may reuse its slice.
func (c *Client) QueueGetMulti(keys []string) {
	if len(keys) == 0 {
		return
	}
	c.bw.WriteString("get") //nolint:errcheck
	k0 := len(c.mkeys)
	for _, k := range keys {
		c.bw.WriteByte(' ') //nolint:errcheck
		c.bw.WriteString(k) //nolint:errcheck
		c.mkeys = append(c.mkeys, k)
	}
	c.bw.WriteString(crlf) //nolint:errcheck
	c.pending = append(c.pending, pend{kind: 'm', k0: k0, k1: len(c.mkeys)})
}

// QueueSet buffers a set.
func (c *Client) QueueSet(key string, flags uint32, exptime int64, value []byte) {
	c.bw.WriteString("set ") //nolint:errcheck
	c.bw.WriteString(key)    //nolint:errcheck
	c.bw.WriteByte(' ')      //nolint:errcheck
	writeUint(c.bw, uint64(flags))
	c.bw.WriteByte(' ')                              //nolint:errcheck
	c.bw.WriteString(strconv.FormatInt(exptime, 10)) //nolint:errcheck
	c.bw.WriteByte(' ')                              //nolint:errcheck
	writeUint(c.bw, uint64(len(value)))
	c.bw.WriteString(crlf) //nolint:errcheck
	c.bw.Write(value)      //nolint:errcheck
	c.bw.WriteString(crlf) //nolint:errcheck
	c.pending = append(c.pending, pend{kind: 's'})
}

// QueueDelete buffers a delete.
func (c *Client) QueueDelete(key string) {
	c.bw.WriteString("delete ") //nolint:errcheck
	c.bw.WriteString(key)       //nolint:errcheck
	c.bw.WriteString(crlf)      //nolint:errcheck
	c.pending = append(c.pending, pend{kind: 'd'})
}

// Exchange flushes every queued request in one write and reads their
// responses in order. A multiget expands to one Resp per key, in the key
// order queued, so callers can line responses up with requests positionally.
// A transport error poisons the connection; a server-reported error is
// returned per-response in Resp.Err.
//
// The returned slice, and every Resp.Value in it, is valid until the next
// Exchange on this client: the response array and the value arena are both
// reused across calls, so a pipelined caller allocates nothing per batch in
// steady state. Copy what must outlive the next Exchange.
func (c *Client) Exchange() ([]Resp, error) {
	if len(c.pending) == 0 {
		return nil, nil
	}
	n := 0
	for _, p := range c.pending {
		if p.kind == 'm' {
			n += p.k1 - p.k0
		} else {
			n++
		}
	}
	c.nc.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	if err := c.bw.Flush(); err != nil {
		c.reset()
		return nil, err
	}
	if cap(c.resps) < n {
		c.resps = make([]Resp, 0, n)
	}
	out := c.resps[:0]
	for _, p := range c.pending {
		var err error
		if p.kind == 'm' {
			out, err = c.readMultiGetResp(c.mkeys[p.k0:p.k1], out)
		} else {
			var r Resp
			r, err = c.readResp(p.kind)
			out = append(out, r)
		}
		if err != nil {
			c.reset()
			c.resps = out
			return out, err
		}
	}
	c.reset()
	c.resps = out
	return out, nil
}

// reset readies the client for the next batch. The values just returned
// keep their arena array (an arena dropped here stays alive while they
// reference it); the next Exchange reads over it from the start.
func (c *Client) reset() {
	c.pending = c.pending[:0]
	c.mkeys = c.mkeys[:0]
	c.vals = c.vals[:0]
	if cap(c.vals) > maxValArena {
		c.vals = nil
	}
}

// readResp parses one response for a request of the given kind.
func (c *Client) readResp(kind byte) (Resp, error) {
	switch kind {
	case 'g':
		return c.readGetResp()
	case 's', 'd':
		line, err := c.readLineB()
		if err != nil {
			return Resp{}, err
		}
		switch {
		case kind == 's' && string(line) == "STORED":
			return Resp{Hit: true}, nil
		case kind == 's' && string(line) == "NOT_STORED":
			return Resp{}, nil
		case kind == 'd' && string(line) == "DELETED":
			return Resp{Hit: true}, nil
		case kind == 'd' && string(line) == "NOT_FOUND":
			return Resp{}, nil
		case isErrorLineB(line):
			return Resp{Err: string(line)}, nil
		}
		return Resp{}, fmt.Errorf("server: unexpected response %q", line)
	}
	return Resp{}, fmt.Errorf("server: unknown request kind %q", kind)
}

// readValueHeader parses "VALUE <key> <flags> <bytes> [<cas>]". The returned
// key aliases line (and thus the read buffer): callers must use it before
// the next read — in particular before consumeValueBody.
func (c *Client) readValueHeader(line []byte) (key []byte, r Resp, n int, err error) {
	c.fields = fieldsInto(c.fields[:0], line)
	parts := c.fields
	if len(parts) < 4 {
		return nil, r, 0, fmt.Errorf("server: malformed VALUE line %q", line)
	}
	key = parts[1]
	flags, err := parseUintBytes(parts[2], 32)
	if err != nil {
		return nil, r, 0, fmt.Errorf("server: bad flags in %q", line)
	}
	n64, err := parseUintBytes(parts[3], 31)
	if err != nil {
		return nil, r, 0, fmt.Errorf("server: bad length in %q", line)
	}
	if len(parts) >= 5 {
		if cas, perr := parseUintBytes(parts[4], 64); perr == nil {
			r.Cas = cas
		}
	}
	r.Hit = true
	r.Flags = uint32(flags)
	return key, r, int(n64), nil
}

// consumeValueBody reads the n-byte data block plus its CRLF into the value
// arena and returns the data, capped at its length. An arena too small for
// the block is replaced by a larger one rather than grown in place: values
// already returned by this Exchange keep pointing at the old array.
func (c *Client) consumeValueBody(n int) ([]byte, error) {
	off := len(c.vals)
	if cap(c.vals)-off < n+2 {
		c.vals = make([]byte, 0, max(2*cap(c.vals), n+2, 4<<10))
		off = 0
	}
	c.vals = c.vals[:off+n+2]
	if _, err := io.ReadFull(c.br, c.vals[off:]); err != nil {
		return nil, err
	}
	// The CRLF is not part of the value: the next block reads over it.
	c.vals = c.vals[:off+n]
	return c.vals[off : off+n : off+n], nil
}

// readGetResp parses zero or one VALUE blocks terminated by END.
func (c *Client) readGetResp() (Resp, error) {
	var r Resp
	for {
		line, err := c.readLineB()
		if err != nil {
			return r, err
		}
		switch {
		case string(line) == "END":
			return r, nil
		case bytes.HasPrefix(line, []byte("VALUE ")):
			_, vr, n, err := c.readValueHeader(line)
			if err != nil {
				return r, err
			}
			if vr.Value, err = c.consumeValueBody(n); err != nil {
				return r, err
			}
			r = vr
		case isErrorLineB(line):
			r.Err = string(line)
			return r, nil // error lines are terminal; no END follows
		default:
			return r, fmt.Errorf("server: unexpected response %q", line)
		}
	}
}

// readMultiGetResp parses one multiget response — the hits' VALUE blocks in
// request key order, then END — and appends one Resp per requested key to
// out. Keys absent from an END-terminated response are misses. A terminal
// error line (the server truncates the response there, no END follows) is
// reported on every key not answered by a VALUE block: without the END, a
// skipped key cannot be distinguished from one the server never reached.
func (c *Client) readMultiGetResp(keys []string, out []Resp) ([]Resp, error) {
	base := len(out)
	for range keys {
		out = append(out, Resp{})
	}
	next := 0 // next requested key a VALUE block may match
	for {
		line, err := c.readLineB()
		if err != nil {
			return out, err
		}
		switch {
		case string(line) == "END":
			return out, nil
		case bytes.HasPrefix(line, []byte("VALUE ")):
			key, r, n, err := c.readValueHeader(line)
			if err != nil {
				return out, err
			}
			// Hits come back in request order: skip over the misses. The key
			// aliases the read buffer, so the match must happen before the
			// body read below invalidates it.
			for next < len(keys) && keys[next] != string(key) {
				next++
			}
			if next == len(keys) {
				return out, fmt.Errorf("server: unexpected key %q in multiget response", key)
			}
			if r.Value, err = c.consumeValueBody(n); err != nil {
				return out, err
			}
			out[base+next] = r
			next++
		case isErrorLineB(line):
			// The error truncates the response (no END follows), so nothing
			// distinguishes a key the server answered-by-omission from one it
			// never reached: every key without a VALUE block is unresolved —
			// including those already skipped past as presumed misses — and
			// must carry the error rather than read as a plain miss.
			for i := range keys {
				if !out[base+i].Hit {
					out[base+i].Err = string(line)
				}
			}
			return out, nil
		default:
			return out, fmt.Errorf("server: unexpected response %q", line)
		}
	}
}

// Get fetches one key. The returned Value is valid until the client's next
// request (see Resp).
func (c *Client) Get(key string) (Resp, error) {
	c.QueueGet(key, false)
	return c.one()
}

// Gets fetches one key with its cas token. The returned Value is valid until
// the client's next request (see Resp).
func (c *Client) Gets(key string) (Resp, error) {
	c.QueueGet(key, true)
	return c.one()
}

// Set stores one key.
func (c *Client) Set(key string, flags uint32, exptime int64, value []byte) (Resp, error) {
	c.QueueSet(key, flags, exptime, value)
	return c.one()
}

// Delete removes one key.
func (c *Client) Delete(key string) (Resp, error) {
	c.QueueDelete(key)
	return c.one()
}

func (c *Client) one() (Resp, error) {
	rs, err := c.Exchange()
	if err != nil {
		return Resp{}, err
	}
	return rs[0], nil
}

// Version asks the server for its version string.
func (c *Client) Version() (string, error) {
	c.nc.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	if _, err := c.bw.WriteString("version" + crlf); err != nil {
		return "", err
	}
	if err := c.bw.Flush(); err != nil {
		return "", err
	}
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, "VERSION ") {
		return "", fmt.Errorf("server: unexpected version response %q", line)
	}
	return strings.TrimPrefix(line, "VERSION "), nil
}

// Stats fetches the stats command as a name→value map.
func (c *Client) Stats() (map[string]string, error) {
	c.nc.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	if _, err := c.bw.WriteString("stats" + crlf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != "STAT" {
			return nil, fmt.Errorf("server: unexpected stats line %q", line)
		}
		out[parts[1]] = parts[2]
	}
}

// Quit sends quit and closes the connection.
func (c *Client) Quit() error {
	c.bw.WriteString("quit" + crlf) //nolint:errcheck
	c.bw.Flush()                    //nolint:errcheck
	return c.nc.Close()
}

// readLineB reads one CRLF-terminated response line without allocating: the
// returned slice aliases the read buffer and is valid only until the next
// read. The hot response paths parse it in place.
func (c *Client) readLineB() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		// ErrBufferFull cannot happen for protocol-conforming response
		// lines (they are far shorter than the 64 KiB buffer); treat it
		// like any other transport error.
		return nil, err
	}
	end := len(line) - 1
	if end > 0 && line[end-1] == '\r' {
		end--
	}
	return line[:end], nil
}

// isErrorLineB is isErrorLine over the in-place line bytes.
func isErrorLineB(line []byte) bool {
	return string(line) == "ERROR" ||
		bytes.HasPrefix(line, []byte("CLIENT_ERROR ")) ||
		bytes.HasPrefix(line, []byte("SERVER_ERROR "))
}

// readLine reads one CRLF-terminated response line as a string (cold paths:
// version, stats).
func (c *Client) readLine() (string, error) {
	line, err := c.readLineB()
	if err != nil {
		return "", err
	}
	return string(line), nil
}

// isErrorLine reports whether line is one of the protocol's error replies.
func isErrorLine(line string) bool {
	return line == "ERROR" ||
		strings.HasPrefix(line, "CLIENT_ERROR ") ||
		strings.HasPrefix(line, "SERVER_ERROR ")
}
