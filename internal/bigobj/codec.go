// Wire formats for manifests and chunk values. Both carry a magic tag and
// the put generation; readers validate every field before returning bytes,
// so a foreign value under an object key, a stale chunk from an older put,
// or a truncated record all surface as clean errors instead of torn reads.
// (Byte-level corruption inside a value is the engine's job — every item is
// checksummed on read — so these headers only need to catch *wrong value*
// cases, not flipped bits.)
package bigobj

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Manifest value layout: a manifestSize-byte header (little-endian), then
// chunk 0's payload, min(size, chunk payload size) bytes. Chunk 0 has no
// key and no header of its own: the manifest's generation covers it.
//
//	0:4   magic "ZBM2"
//	4:12  generation
//	12:20 object size in bytes
//	20:24 chunk payload size
//	24:28 chunk count
//	28:36 reserved, written as zero (every byte is already checksummed by
//	      the engine's per-item CRC)
const manifestSize = 36

// Chunk header layout of chunks 1..n-1 (chunkHeaderSize bytes,
// little-endian), followed by the payload:
//
//	0:4   magic "ZBC1"
//	4:12  generation of the put that wrote this chunk
//	12:16 chunk index
//	16:20 payload length
const chunkHeaderSize = 20

var (
	manifestMagic = [4]byte{'Z', 'B', 'M', '2'}
	chunkMagic    = [4]byte{'Z', 'B', 'C', '1'}

	errNotManifest = errors.New("bigobj: value is not a manifest")
	errNotChunk    = errors.New("bigobj: value is not a chunk")
)

// manifest is the decoded form of an object's manifest value.
type manifest struct {
	gen        uint64
	size       int64
	chunkSize  uint32
	chunkCount uint32
}

// encodeManifest writes m's header into b[0:manifestSize]; chunk 0's
// payload follows it in b.
func encodeManifest(b []byte, m manifest) {
	copy(b[0:4], manifestMagic[:])
	binary.LittleEndian.PutUint64(b[4:12], m.gen)
	binary.LittleEndian.PutUint64(b[12:20], uint64(m.size))
	binary.LittleEndian.PutUint32(b[20:24], m.chunkSize)
	binary.LittleEndian.PutUint32(b[24:28], m.chunkCount)
	clear(b[28:manifestSize])
}

// decodeManifest parses a manifest value, validating magic, geometry and
// chunk 0's payload length, and returns chunk 0's payload.
func decodeManifest(b []byte) (manifest, []byte, error) {
	if len(b) < manifestSize || [4]byte(b[0:4]) != manifestMagic {
		return manifest{}, nil, errNotManifest
	}
	m := manifest{
		gen:        binary.LittleEndian.Uint64(b[4:12]),
		size:       int64(binary.LittleEndian.Uint64(b[12:20])),
		chunkSize:  binary.LittleEndian.Uint32(b[20:24]),
		chunkCount: binary.LittleEndian.Uint32(b[24:28]),
	}
	if m.size < 0 || m.chunkSize == 0 {
		return manifest{}, nil, fmt.Errorf("%w: bad geometry", errNotManifest)
	}
	want := (m.size + int64(m.chunkSize) - 1) / int64(m.chunkSize)
	if int64(m.chunkCount) != want {
		return manifest{}, nil, fmt.Errorf("%w: chunk count %d does not cover size %d at chunk size %d",
			errNotManifest, m.chunkCount, m.size, m.chunkSize)
	}
	if c0 := min(m.size, int64(m.chunkSize)); int64(len(b)-manifestSize) != c0 {
		return manifest{}, nil, fmt.Errorf("%w: chunk 0 payload %d, want %d", errNotManifest, len(b)-manifestSize, c0)
	}
	return m, b[manifestSize:], nil
}

// encodeChunkHeader writes the chunk header into b[0:chunkHeaderSize].
func encodeChunkHeader(b []byte, gen uint64, idx, payloadLen uint32) {
	copy(b[0:4], chunkMagic[:])
	binary.LittleEndian.PutUint64(b[4:12], gen)
	binary.LittleEndian.PutUint32(b[12:16], idx)
	binary.LittleEndian.PutUint32(b[16:20], payloadLen)
}

// decodeChunkHeader parses a chunk value's header and validates that the
// declared payload length matches the value size. The payload itself is
// b[chunkHeaderSize:].
func decodeChunkHeader(b []byte) (gen uint64, idx uint32, payload []byte, err error) {
	if len(b) < chunkHeaderSize || [4]byte(b[0:4]) != chunkMagic {
		return 0, 0, nil, errNotChunk
	}
	gen = binary.LittleEndian.Uint64(b[4:12])
	idx = binary.LittleEndian.Uint32(b[12:16])
	plen := binary.LittleEndian.Uint32(b[16:20])
	if int(plen) != len(b)-chunkHeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: declared payload %d, have %d", errNotChunk, plen, len(b)-chunkHeaderSize)
	}
	return gen, idx, b[chunkHeaderSize:], nil
}
