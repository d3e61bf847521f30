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

// Manifest layout (manifestSize bytes, little-endian):
//
//	0:4   magic "ZBM1"
//	4:12  generation
//	12:20 object size in bytes
//	20:24 chunk payload size
//	24:28 chunk count
//	28:36 reserved, written as zero (every byte is already checksummed by
//	      the engine's per-item CRC)
const manifestSize = 36

// Chunk header layout (chunkHeaderSize bytes, little-endian), followed by
// the payload:
//
//	0:4   magic "ZBC1"
//	4:12  generation of the put that wrote this chunk
//	12:16 chunk index
//	16:20 payload length
const chunkHeaderSize = 20

var (
	manifestMagic = [4]byte{'Z', 'B', 'M', '1'}
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

// encodeManifest renders m into a fresh value buffer.
func encodeManifest(m manifest) []byte {
	b := make([]byte, manifestSize)
	copy(b[0:4], manifestMagic[:])
	binary.LittleEndian.PutUint64(b[4:12], m.gen)
	binary.LittleEndian.PutUint64(b[12:20], uint64(m.size))
	binary.LittleEndian.PutUint32(b[20:24], m.chunkSize)
	binary.LittleEndian.PutUint32(b[24:28], m.chunkCount)
	return b
}

// decodeManifest parses a manifest value, validating magic and geometry.
func decodeManifest(b []byte) (manifest, error) {
	if len(b) != manifestSize || [4]byte(b[0:4]) != manifestMagic {
		return manifest{}, errNotManifest
	}
	m := manifest{
		gen:        binary.LittleEndian.Uint64(b[4:12]),
		size:       int64(binary.LittleEndian.Uint64(b[12:20])),
		chunkSize:  binary.LittleEndian.Uint32(b[20:24]),
		chunkCount: binary.LittleEndian.Uint32(b[24:28]),
	}
	if m.size < 0 || m.chunkSize == 0 {
		return manifest{}, fmt.Errorf("%w: bad geometry", errNotManifest)
	}
	want := (m.size + int64(m.chunkSize) - 1) / int64(m.chunkSize)
	if int64(m.chunkCount) != want {
		return manifest{}, fmt.Errorf("%w: chunk count %d does not cover size %d at chunk size %d",
			errNotManifest, m.chunkCount, m.size, m.chunkSize)
	}
	return m, nil
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
