package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every value the benchmark writes checks itself, so every read can be
// verified without a reference copy of the data:
//
//	[0:2]   writer id (preloadWriter for the initial load)
//	[2:10]  writer-local sequence number (0 for the initial load)
//	[10]    key length k
//	[11:11+k] the key the value belongs to
//	...     filler derived from the sequence number
//	[60:64] CRC-32 (IEEE) of bytes [0:60]
const (
	valueLen      = 64
	crcOff        = valueLen - 4
	preloadWriter = 0xFFFF
)

// appendValue appends the self-checking value for (key, writer, seq).
func appendValue(dst, key []byte, writer uint16, seq uint64) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, writer)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, byte(len(key)))
	dst = append(dst, key...)
	for i := len(dst) - start; i < crcOff; i++ {
		dst = append(dst, byte(seq)+byte(i))
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// parseValue checks that v is an intact value written for key and
// returns its writer and sequence number.
func parseValue(key, v []byte) (writer uint16, seq uint64, err error) {
	if len(v) != valueLen {
		return 0, 0, fmt.Errorf("value for %q has %d bytes, want %d", key, len(v), valueLen)
	}
	if crc32.ChecksumIEEE(v[:crcOff]) != binary.BigEndian.Uint32(v[crcOff:]) {
		return 0, 0, fmt.Errorf("value for %q fails its checksum", key)
	}
	k := int(v[10])
	if 11+k > crcOff || !bytes.Equal(v[11:11+k], key) {
		return 0, 0, fmt.Errorf("value read for %q belongs to another key", key)
	}
	return binary.BigEndian.Uint16(v), binary.BigEndian.Uint64(v[2:]), nil
}
