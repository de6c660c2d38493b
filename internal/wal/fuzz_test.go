package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/page"
)

// FuzzDecodeRecord drives the log record decoder — the one every archive
// run read and every restart scan goes through — with arbitrary bytes. It
// must never panic, must reject what it cannot parse with a typed error,
// and anything it accepts must re-encode through EncodeRecord to exactly
// the bytes it consumed, so a record reads back identically from the live
// log and from an archived run.
func FuzzDecodeRecord(f *testing.F) {
	// Well-formed seeds: one record of every type.
	for typ := TypeInvalid; typ <= TypeCheckpointEnd; typ++ {
		f.Add(EncodeRecord(&Record{
			Type: typ, Txn: TxnID(typ) + 1, PrevLSN: 16, PageID: page.ID(typ) * 3,
			PagePrevLSN: 64, UndoNext: 32, Payload: bytes.Repeat([]byte{byte(typ)}, int(typ)*7),
		}))
	}
	full := EncodeRecord(&Record{Type: TypeUpdate, Txn: 9, PageID: 5, Payload: []byte("payload")})
	// Trailing bytes after a record: the decoder consumes only its length.
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad))
	// Malformed seeds: truncations, a bad checksum, a lying length header.
	f.Add([]byte{})
	f.Add(full[:headerSize])
	f.Add(full[:len(full)-1])
	badCRC := append([]byte(nil), full...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	badLen := append([]byte(nil), full...)
	badLen[0] = 0xff
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(FirstLSN(), b)
		if err != nil {
			if !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrCorruptRec) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < headerSize+trailerSize || n > len(b) {
			t.Fatalf("decoded size %d outside [%d, %d]", n, headerSize+trailerSize, len(b))
		}
		if got := EncodeRecord(rec); !bytes.Equal(got, b[:n]) {
			t.Fatalf("round trip diverged:\n got %x\nwant %x", got, b[:n])
		}
	})
}
