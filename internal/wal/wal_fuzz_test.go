package wal

import (
	"bytes"
	"testing"
)

// FuzzWALScan feeds the recovery scanner arbitrary file contents. It
// must never panic; framing the records it returns must reproduce the
// accepted prefix byte for byte (so nothing recovery keeps differs from
// what an append wrote); and Inspect — the tooling's walk over the same
// frames — must agree on where the intact prefix ends and how many
// records it holds.
func FuzzWALScan(f *testing.F) {
	var log []byte
	for i, payload := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte{0xA5}, 300)} {
		log = appendFrame(log, byte(i+1), payload)
	}
	f.Add(log)
	f.Add(log[:len(log)-7])              // torn payload
	f.Add(log[:headerSize+headerSize/2]) // torn header
	f.Add(append([]byte{0xFF}, log...))  // length beyond MaxRecordBytes
	corrupt := append([]byte(nil), log...)
	corrupt[headerSize+headerSize] ^= 1 // second record's payload byte
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, raw []byte) {
		records, good := scan(raw)
		var reframed []byte
		for _, r := range records {
			reframed = appendFrame(reframed, r.Type, r.Payload)
		}
		if good > int64(len(raw)) || !bytes.Equal(reframed, raw[:good]) {
			t.Fatalf("re-framing %d records gives %d bytes, accepted prefix is %d of %d", len(records), len(reframed), good, len(raw))
		}
		rep := inspect(raw)
		intact := len(rep.Records)
		if intact > 0 && !rep.Records[intact-1].CRCOK {
			intact--
		}
		if rep.GoodBytes != good || intact != len(records) || rep.TotalBytes != int64(len(raw)) {
			t.Fatalf("Inspect sees %d intact records in %d of %d bytes, scan %d in %d", intact, rep.GoodBytes, rep.TotalBytes, len(records), good)
		}
	})
}
