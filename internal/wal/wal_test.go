package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendN writes n records with deterministic, distinguishable payloads
// and returns them.
func appendN(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < n; i++ {
		typ := byte(1 + i%3)
		payload := []byte(fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, i%40))))
		if err := l.Append(typ, payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, Record{Type: typ, Payload: payload})
	}
	return out
}

// boundaries reads the log's record boundaries from Inspect: where each
// intact record starts, then where the intact prefix ends — so cutting
// the file at boundaries[k] keeps exactly the first k records.
func boundaries(t *testing.T, path string) []int64 {
	t.Helper()
	rep, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for _, r := range rep.Records {
		if r.CRCOK {
			offsets = append(offsets, r.Offset)
		}
	}
	return append(offsets, rep.GoodBytes)
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	want := appendN(t, l, 25)
	if l.Records() != 25 {
		t.Fatalf("Records() = %d, want 25", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sameRecords(got, want) {
		t.Fatalf("recovered records differ: got %d, want %d", len(got), len(want))
	}
	if st := l2.Stats(); st.Truncated || st.TornBytes != 0 {
		t.Fatalf("clean log reported truncation: %+v", st)
	}
	// The reopened log must be appendable, and the appends must survive
	// another reopen.
	if err := l2.Append(9, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, got3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != 26 || got3[25].Type != 9 {
		t.Fatalf("append after reopen lost: %d records", len(got3))
	}
}

// TestTruncateAtEveryByte is the torn-tail matrix: a log cut at *every*
// byte offset must recover exactly the records whose frames fit below
// the cut, never an error, never a partial record.
func TestTruncateAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 12)
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := boundaries(t, path)
	if len(offsets) != 13 || offsets[len(offsets)-1] != int64(len(raw)) {
		t.Fatalf("offsets = %v, file len %d", offsets, len(raw))
	}

	// complete[c] = how many records survive a cut at byte c.
	complete := func(cut int64) int {
		n := 0
		for n+1 < len(offsets) && offsets[n+1] <= cut {
			n++
		}
		return n
	}

	cutPath := filepath.Join(dir, "cut.wal")
	for cut := int64(0); cut <= int64(len(raw)); cut++ {
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(cutPath, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantN := complete(cut)
		if !sameRecords(got, want[:wantN]) {
			l.Close()
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		st := l.Stats()
		wantTorn := cut - offsets[wantN]
		if st.TornBytes != wantTorn || st.Truncated != (wantTorn > 0) {
			l.Close()
			t.Fatalf("cut at %d: stats %+v, want torn %d", cut, st, wantTorn)
		}
		// After recovery the file must be cut back to the record
		// boundary and appendable.
		if fi, _ := os.Stat(cutPath); fi.Size() != offsets[wantN] {
			l.Close()
			t.Fatalf("cut at %d: file not truncated to boundary: %d vs %d", cut, fi.Size(), offsets[wantN])
		}
		if err := l.Append(7, []byte("resume")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		l.Close()
		_, again, err := Open(cutPath, Options{})
		if err != nil || len(again) != wantN+1 {
			t.Fatalf("cut at %d: reopen after resumed append: %d records, err %v", cut, len(again), err)
		}
	}
}

// TestCorruptChecksumTail flips one byte inside each record in turn and
// asserts recovery stops exactly before the damaged record.
func TestCorruptChecksumTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 10)
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := boundaries(t, path)

	corruptPath := filepath.Join(dir, "corrupt.wal")
	for rec := 0; rec < 10; rec++ {
		bad := append([]byte(nil), raw...)
		// Flip a payload byte of record rec (offset past the 9-byte
		// header).
		bad[offsets[rec]+headerSize] ^= 0xFF
		if err := os.WriteFile(corruptPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(corruptPath, Options{})
		if err != nil {
			t.Fatalf("corrupt record %d: %v", rec, err)
		}
		if !sameRecords(got, want[:rec]) {
			t.Fatalf("corrupt record %d: recovered %d records, want %d", rec, len(got), rec)
		}
		if st := l.Stats(); !st.Truncated {
			t.Fatalf("corrupt record %d: truncation not reported", rec)
		}
		l.Close()
	}
}

// TestCorruptLengthField damages a length prefix so it points past the
// end of the file (torn) and beyond MaxRecordBytes (insane); both must
// end recovery at the previous boundary instead of erroring or
// allocating.
func TestCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "len.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 4)
	l.Close()
	raw, _ := os.ReadFile(path)
	offsets := boundaries(t, path)

	for _, firstByte := range []byte{0x7F, 0xFF} { // huge but < / > MaxRecordBytes
		bad := append([]byte(nil), raw...)
		bad[offsets[2]] = firstByte
		p := filepath.Join(dir, "bad.wal")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(got, want[:2]) {
			t.Fatalf("length 0x%02x: recovered %d records, want 2", firstByte, len(got))
		}
		l.Close()
	}
}

func TestCompactReplacesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 50)
	snap := []Record{
		{Type: 1, Payload: []byte("snapshot-of-everything")},
		{Type: 2, Payload: []byte("second-part")},
	}
	if err := l.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("Records() after compact = %d", l.Records())
	}
	// Appends after compaction land after the snapshot.
	if err := l.Append(3, []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantAll := append(append([]Record(nil), snap...), Record{Type: 3, Payload: []byte("post-compact")})
	if !sameRecords(got, wantAll) {
		t.Fatalf("post-compact contents wrong: %d records", len(got))
	}
}

// TestCompactCrashLeftover simulates a crash between staging the
// compaction file and renaming it: Open must ignore (and remove) the
// temp file and recover the original log.
func TestCompactCrashLeftover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 8)
	l.Close()
	// A half-finished staging file from a crashed compaction.
	if err := os.WriteFile(compactPath(path), []byte("partial snapshot junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sameRecords(got, want) {
		t.Fatalf("leftover temp corrupted recovery: %d records", len(got))
	}
	if _, err := os.Stat(compactPath(path)); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp not removed: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(1, []byte("x")); err == nil {
		t.Fatal("append to closed log accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
