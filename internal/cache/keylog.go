package cache

import "encoding/binary"

// keyLog is the per-region record of inserted keys in insertion order. The
// engine used to keep a []string next to the index map; at millions of items
// that is one string header per key for the GC to trace on every cycle, plus
// repeated slice regrowth per region generation. The log instead packs keys
// into a single pointer-free byte buffer ([2-byte little-endian length][key
// bytes] per entry) that is reused across region generations, so steady-state
// appends never allocate and region metadata holds exactly one pointer.
//
// The index keeps only key hashes, so the logs are where every indexed key
// lives (eachEntry, Snapshot). Eviction hashes each logged key's bytes in
// place (index.hashLog) to find and drop its entry, materializing no string.
type keyLog struct {
	data []byte
	n    int
}

// append records key at the end of the log. Key length fits uint16: SetTTL
// refuses longer keys (maxKeyLen).
func (kl *keyLog) append(key string) {
	var pfx [2]byte
	binary.LittleEndian.PutUint16(pfx[:], uint16(len(key)))
	kl.data = append(kl.data, pfx[0], pfx[1])
	kl.data = append(kl.data, key...)
	kl.n++
}

// len returns the number of recorded keys.
func (kl *keyLog) len() int { return kl.n }

// reset empties the log, keeping the buffer for reuse.
func (kl *keyLog) reset() {
	kl.data = kl.data[:0]
	kl.n = 0
}

// strings returns the logged keys as freshly-allocated strings, for
// serialization paths that need the []string form.
func (kl *keyLog) strings() []string {
	if kl.n == 0 {
		return nil
	}
	out := make([]string, 0, kl.n)
	kl.each(func(k []byte) bool {
		out = append(out, string(k))
		return true
	})
	return out
}

// setStrings replaces the log's contents with keys.
func (kl *keyLog) setStrings(keys []string) {
	kl.reset()
	for _, k := range keys {
		kl.append(k)
	}
}

// each calls fn for every key in insertion order until fn returns false. The
// byte slice passed to fn aliases the log's buffer: valid until the log is
// next appended to or reset.
func (kl *keyLog) each(fn func(k []byte) bool) {
	for off := 0; off+2 <= len(kl.data); {
		n := int(binary.LittleEndian.Uint16(kl.data[off:]))
		off += 2
		if off+n > len(kl.data) {
			return
		}
		if !fn(kl.data[off : off+n]) {
			return
		}
		off += n
	}
}
