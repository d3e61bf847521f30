package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// The workload generators live here, not in the program under test: the
// program only ever sees the generated operations, so a change to
// internal/workload cannot change what the serve_* and replay_schemes
// workloads ask of it. Everything is a pure function of the -seed flag.

// opKind is a cache operation type.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
)

// op is one generated operation. key indexes the interned name table.
type op struct {
	kind   opKind
	key    int32
	valLen int32
}

// newRand derives an independent PCG stream from the run seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9E3779B97F4A7C15+1))
}

// zipf draws ranks in [0, n) with Zipfian popularity (Gray et al., the
// YCSB generator); rank 0 is the hottest.
type zipf struct {
	n                        int64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n int64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), half: 1 + math.Pow(0.5, theta)}
	for i := int64(1); i <= n; i++ {
		z.zetan += math.Pow(float64(i), -theta)
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// sizeDist is the value-size distribution: a weighted table, or (when
// sizes is nil) uniform over [lo, hi].
type sizeDist struct {
	sizes, weights []int32
	weightSum      int32
	lo, hi         int32
}

// bcSizes is the navy/bc object-size mix the paper's micro-benchmarks use.
func bcSizes() sizeDist {
	return sizeDist{
		sizes:     []int32{512, 1024, 4096, 8192, 16384},
		weights:   []int32{25, 30, 30, 10, 5},
		weightSum: 100,
	}
}

func (d *sizeDist) next(r *rand.Rand) int32 {
	if d.sizes == nil {
		return d.lo + r.Int32N(d.hi-d.lo+1)
	}
	x := r.Int32N(d.weightSum)
	for i, w := range d.weights {
		if x < w {
			return d.sizes[i]
		}
		x -= w
	}
	return d.sizes[len(d.sizes)-1]
}

// mean is the expected value size, used to size key spaces against a cache.
func (d *sizeDist) mean() float64 {
	if d.sizes == nil {
		return float64(d.lo+d.hi) / 2
	}
	var s float64
	for i, w := range d.weights {
		s += float64(d.sizes[i]) * float64(w)
	}
	return s / float64(d.weightSum)
}

// mix generates a get/set/delete stream: gets and sets follow the zipf
// popularity, deletes are uniform (invalidations are not focused on hot
// keys). Ranks are scattered over the key space by a multiplicative
// bijection so hot keys spread across shards and regions.
type mix struct {
	r              *rand.Rand
	z              *zipf
	keys           int64
	scatter        int64
	getPct, setPct int
	sizes          sizeDist
}

// newMix builds one stream. z is shared between streams (it is read-only).
func newMix(seed, stream uint64, z *zipf, getPct, setPct int, sizes sizeDist) *mix {
	m := &mix{r: newRand(seed, stream), z: z, keys: z.n, getPct: getPct, setPct: setPct, sizes: sizes}
	// Any multiplier coprime with the key count is a bijection on [0, keys).
	m.scatter = 2654435761 % m.keys
	for gcd(m.scatter, m.keys) != 1 {
		m.scatter++
	}
	return m
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (m *mix) hotKey() int32 {
	return int32(m.z.next(m.r) * m.scatter % m.keys)
}

func (m *mix) next() op {
	x := m.r.IntN(100)
	switch {
	case x < m.getPct:
		// Gets carry a size too: a miss is filled with an object that big.
		return op{kind: opGet, key: m.hotKey(), valLen: m.sizes.next(m.r)}
	case x < m.getPct+m.setPct:
		return op{kind: opSet, key: m.hotKey(), valLen: m.sizes.next(m.r)}
	default:
		return op{kind: opDel, key: int32(m.r.Int64N(m.keys))}
	}
}

// keyNames interns the 16-byte names "key-000000000042" of a key space, so
// the measured loops never allocate a key.
func keyNames(n int64) []string {
	names := make([]string, n)
	for i := range names {
		b := [16]byte{'k', 'e', 'y', '-', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0'}
		for p, v := 15, i; v > 0; p, v = p-1, v/10 {
			b[p] = byte('0' + v%10)
		}
		names[i] = string(b[:])
	}
	return names
}

// tagLen is the size of the self-check tag every payload starts with.
const tagLen = 8

// tagOf hashes (key, payload length): FNV-1a over the key, the length folded
// in, one finalizer round. A hit whose bytes belong to another key, or that
// came back truncated or padded, fails the comparison.
func tagOf(key string, n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= uint64(n) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// payloadPool is the filler every payload is cut from.
var payloadPool = func() []byte {
	b := make([]byte, 16<<10)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// putPayload writes the n-byte payload of key into dst[:n]: tag, then filler.
func putPayload(dst []byte, key string, n int) []byte {
	copy(dst[:n], payloadPool)
	binary.LittleEndian.PutUint64(dst, tagOf(key, n))
	return dst[:n]
}

// payloadOK verifies a value returned for key.
func payloadOK(key string, val []byte) bool {
	return len(val) >= tagLen && binary.LittleEndian.Uint64(val) == tagOf(key, len(val))
}
