// The disk tier's object frame (layout version 2; version 1 was the bare
// payload). An object file is a 12-byte header followed by the payload:
//
//	bytes 0–7    payload length, uint64 little-endian
//	bytes 8–11   CRC-32C (Castagnoli) of the payload, uint32 little-endian
//	bytes 12–    payload
//
// Keys address the request, not the payload, so only the frame can tell
// a whole object from a truncated, bit-flipped or foreign file.

package store

import (
	"encoding/binary"
	"hash/crc32"
)

// frameSize is the header's length: an object file holds frameSize bytes
// more than its payload.
const frameSize = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader returns the header that precedes payload in its object file.
func frameHeader(payload []byte) [frameSize]byte {
	var h [frameSize]byte
	binary.LittleEndian.PutUint64(h[:8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[8:], crc32.Checksum(payload, castagnoli))
	return h
}

// unframe returns the payload an object file's bytes carry, or false when
// the frame does not hold: a file shorter than the header, a length that
// disagrees with the file's, or a checksum mismatch.
func unframe(data []byte) ([]byte, bool) {
	if len(data) < frameSize {
		return nil, false
	}
	payload := data[frameSize:]
	if binary.LittleEndian.Uint64(data) != uint64(len(payload)) ||
		binary.LittleEndian.Uint32(data[8:]) != crc32.Checksum(payload, castagnoli) {
		return nil, false
	}
	return payload, true
}
