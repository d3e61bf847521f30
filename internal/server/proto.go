package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"
	"strconv"
	"time"
)

// Version is the string the version command reports.
const Version = "znscache/1.0"

// Protocol constants.
const (
	crlf         = "\r\n"
	respStored   = "STORED\r\n"
	respDeleted  = "DELETED\r\n"
	respNotFound = "NOT_FOUND\r\n"
	respEnd      = "END\r\n"
	respError    = "ERROR\r\n"

	// maxKeyLen is memcached's key limit.
	maxKeyLen = 250
	// relativeExpCutoff: exptimes up to this many seconds are relative,
	// larger ones are absolute unix times (memcached's 30-day rule).
	relativeExpCutoff = 30 * 24 * 3600
)

// handleStats serves the stats command: the server's own instruments in
// memcached's classic names, then any StatsExtra lines sorted by name.
func (s *Server) handleStats(w *respWriter) {
	m := &s.m
	writeStat(w, "uptime_seconds", strconv.FormatInt(int64(time.Since(s.start).Seconds()), 10))
	writeStat(w, "curr_connections", strconv.FormatInt(m.connsOpen.Load(), 10))
	writeStat(w, "total_connections", strconv.FormatUint(m.connsTotal.Load(), 10))
	writeStat(w, "cmd_get", strconv.FormatUint(m.gets.Load(), 10))
	writeStat(w, "cmd_set", strconv.FormatUint(m.sets.Load(), 10))
	writeStat(w, "cmd_delete", strconv.FormatUint(m.deletes.Load(), 10))
	writeStat(w, "get_hits", strconv.FormatUint(m.getHits.Load(), 10))
	writeStat(w, "get_misses", strconv.FormatUint(m.getMisses.Load(), 10))
	writeStat(w, "curr_items", strconv.Itoa(s.cfg.Backend.Len()))
	writeStat(w, "bytes_read", strconv.FormatUint(m.bytesIn.Load(), 10))
	writeStat(w, "bytes_written", strconv.FormatUint(m.bytesOut.Load(), 10))
	writeStat(w, "protocol_errors", strconv.FormatUint(m.protoErrors.Load(), 10))
	writeStat(w, "slow_requests", strconv.FormatUint(m.slowRequests.Load(), 10))
	if s.cfg.StatsExtra != nil {
		extra := s.cfg.StatsExtra()
		names := make([]string, 0, len(extra))
		for name := range extra {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			writeStat(w, name, extra[name])
		}
	}
	w.str(respEnd)
}

// readBody fills buf from the connection under the read timeout. One
// deadline expiry is retried with a fresh deadline: a shutdown poke can race
// the idle→busy transition and expire the deadline mid-body, and a request
// whose header was accepted must not be dropped for it.
func (s *Server) readBody(c *conn, br *bufio.Reader, buf []byte) error {
	read, retried := 0, false
	for read < len(buf) {
		if br.Buffered() < len(buf)-read {
			// The body is not fully buffered: the fill will touch the
			// socket, so arm the deadline. Fully-buffered bodies (the
			// pipelined common case) skip the timer update.
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) //nolint:errcheck
		}
		n, err := io.ReadFull(br, buf[read:])
		read += n
		if err == nil {
			return nil
		}
		if isTimeout(err) && !retried {
			retried = true
			continue
		}
		return err
	}
	return nil
}

// discardBody swallows an oversized declared body (plus its CRLF) without
// buffering it. ok reports whether the stream stayed in sync; badChunk
// distinguishes a present-but-corrupt terminator (report "bad data chunk")
// from a transport failure (close silently).
func (s *Server) discardBody(c *conn, br *bufio.Reader, n int64) (ok, badChunk bool) {
	c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) //nolint:errcheck
	if _, err := io.CopyN(io.Discard, br, n); err != nil {
		return false, false
	}
	var term [2]byte
	if s.readBody(c, br, term[:]) != nil {
		return false, false
	}
	if term[0] != '\r' || term[1] != '\n' {
		return false, true
	}
	return true, false
}

// expDeadline converts an absolute memcached exptime (> relativeExpCutoff,
// a unix time) to a deadline on the shard clock whose zero is WallBase. The
// remaining TTL is the deadline less the owning engine's clock, resolved at
// execution time (execShardGroup) so it lands on the clock relative TTLs
// already use; ≤0 means already expired.
func (s *Server) expDeadline(exptime int64) time.Duration {
	return time.Unix(exptime, 0).Sub(s.wallBase)
}

// validKey applies memcached's key rules: 1..250 bytes, no whitespace or
// control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > maxKeyLen {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] <= ' ' || k[i] == 0x7f {
			return false
		}
	}
	return true
}

// encodeValue prefixes the client's opaque flags (4 bytes big-endian) onto
// the data so the cache backend stores a single byte slice per key.
func encodeValue(flags uint32, data []byte) []byte {
	v := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(v, flags)
	copy(v[4:], data)
	return v
}

// decodeValue splits a stored value back into flags and data. A value
// shorter than the prefix (only possible when the backend was populated
// outside the server) reads as flags 0.
func decodeValue(v []byte) (uint32, []byte) {
	if len(v) < 4 {
		return 0, v
	}
	return binary.BigEndian.Uint32(v), v[4:]
}

// casOf derives the gets cas token from the value bytes (FNV-1a 64): equal
// values compare equal, any modification changes the token. Content-derived
// rather than generation-derived because the backend has no version counter.
func casOf(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func writeClientError(w *respWriter, msg string) {
	w.str("CLIENT_ERROR ")
	w.str(msg)
	w.str(crlf)
}

func writeServerError(w *respWriter, msg string) {
	w.str("SERVER_ERROR ")
	w.str(msg)
	w.str(crlf)
}

func writeStat(w *respWriter, name, value string) {
	w.str("STAT ")
	w.str(name)
	w.bytec(' ')
	w.str(value)
	w.str(crlf)
}

// writeUint renders u in decimal without fmt's reflection overhead (used by
// the client's request writer; the server side renders through respWriter).
func writeUint(bw *bufio.Writer, u uint64) {
	var tmp [20]byte
	bw.Write(strconv.AppendUint(tmp[:0], u, 10)) //nolint:errcheck
}
