package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// commitModes are the two ways a log commits a batch: write only, and
// write plus fdatasync. Both take the same batch path.
var commitModes = []struct {
	name string
	opts Options
}{
	{"nosync", Options{NoSync: true}},
	{"sync", Options{}},
}

// TestGroupCommitConcurrentAppends hammers one log from many goroutines
// and asserts every acknowledged record survives a reopen — the
// journal-before-ack contract under contention, synced or not.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) { testConcurrentAppends(t, m.opts) })
	}
}

func testConcurrentAppends(t *testing.T, opts Options) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	l, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				payload := fmt.Appendf(nil, "w%02d-i%03d", w, i)
				if err := l.Append(byte(1+w%3), payload); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if l.Records() != writers*perW {
		t.Fatalf("Records() = %d, want %d", l.Records(), writers*perW)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*perW {
		t.Fatalf("recovered %d records, want %d", len(got), writers*perW)
	}
	// Every acknowledged record must be present exactly once, and each
	// writer's records must appear in its own append order (per-writer
	// order is what the ledger's per-shard lock guarantees externally).
	seen := make(map[string]int)
	perWriterNext := make([]int, writers)
	for _, r := range got {
		seen[string(r.Payload)]++
		var w, i int
		if _, err := fmt.Sscanf(string(r.Payload), "w%02d-i%03d", &w, &i); err != nil {
			t.Fatalf("unparseable payload %q", r.Payload)
		}
		if i != perWriterNext[w] {
			t.Fatalf("writer %d records out of order: got index %d, want %d", w, i, perWriterNext[w])
		}
		perWriterNext[w]++
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("record %q recovered %d times", p, n)
		}
	}
}

// TestGroupCommitAsyncStagingOrder pins that AppendAsync's staging
// order is the on-disk order even when Waits resolve out of order.
func TestGroupCommitAsyncStagingOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "order.wal")
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	commits := make([]Commit, n)
	for i := 0; i < n; i++ {
		c, err := l.AppendAsync(1, fmt.Appendf(nil, "r%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		commits[i] = c
	}
	// Wait in reverse order: any ticket's Wait must be able to drive the
	// commit regardless of who staged first.
	for i := n - 1; i >= 0; i-- {
		if err := commits[i].Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	l.Close()
	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("r%03d", i); string(r.Payload) != want {
			t.Fatalf("record %d = %q, want %q — staging order not preserved", i, r.Payload, want)
		}
	}
}

// TestGroupCommitUnsyncedOnlyInBatches pins that an unsynced log has no
// commit path of its own: staging writes nothing, and one Wait commits
// every staged frame as one batch.
func TestGroupCommitUnsyncedOnlyInBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns.wal")
	reg := metrics.New()
	l, _, err := Open(path, Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	commits := make([]Commit, n)
	for i := range commits {
		if commits[i], err = l.AppendAsync(1, fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("file holds %d bytes before any Wait — staging wrote", fi.Size())
	}
	if err := commits[n-1].Wait(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.TextExpose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	lbl := map[string]string{"log": "ns.wal"}
	if v, ok := fams.Value("sage_wal_commit_batch_frames_count", lbl); v != 1 {
		t.Errorf("commits = %v (found %v), want 1", v, ok)
	}
	if v, ok := fams.Value("sage_wal_commit_batch_frames_sum", lbl); v != n {
		t.Errorf("frames committed = %v (found %v), want %d", v, ok, n)
	}
	for i, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("r%d", i); string(r.Payload) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Payload, want)
		}
	}
}

// TestGroupCommitCompactFlushesStaged ensures Compact commits staged
// frames before rewriting, rather than letting them land after the
// snapshot (which would double-apply them at replay).
func TestGroupCommitCompactFlushesStaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cf.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.AppendAsync(1, []byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	snap := []Record{{Type: 9, Payload: []byte("snapshot")}}
	if err := l.Compact(snap); err != nil {
		t.Fatal(err)
	}
	// The staged frame was committed (durably) before the rewrite.
	if err := c.Wait(); err != nil {
		t.Fatalf("staged frame lost by compact: %v", err)
	}
	l.Close()
	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload) != "snapshot" {
		t.Fatalf("post-compact contents wrong: %d records", len(got))
	}
}

// TestGroupCommitClosedLog pins that appends staged after Close fail
// rather than ack silently.
func TestGroupCommitClosedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(1, []byte("late")); err == nil {
		t.Fatal("append after close acknowledged")
	}
}

// TestPoisonedLogRefusesAppends simulates a write failure (by closing
// the underlying fd out from under the log) and asserts the log poisons
// itself: the failed append errors, and so does every subsequent one.
func TestPoisonedLogRefusesAppends(t *testing.T) {
	for _, m := range commitModes {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.wal")
			l, _, err := Open(path, m.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(1, []byte("good")); err != nil {
				t.Fatal(err)
			}
			l.f.Close() // simulate the device failing mid-run
			if err := l.Append(1, []byte("fails")); err == nil {
				t.Fatal("append over dead fd acknowledged")
			}
			if err := l.Append(1, []byte("after-failure")); err == nil {
				t.Fatal("append after failure acknowledged — log not poisoned")
			}
		})
	}
}

// TestInspectReportsFrames checks Inspect against a log with a healthy
// prefix and a checksum-corrupted tail record.
func TestInspectReportsFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()

	rep, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 5 || rep.Torn() || rep.GoodBytes != rep.TotalBytes {
		t.Fatalf("clean log report wrong: %+v", rep)
	}
	// Each frame starts where recovery's scan ends the one before it.
	raw, _ := os.ReadFile(path)
	recs, _ := scan(raw)
	var offsets []int64
	for i, r := range rep.Records {
		off := int64(0)
		if i > 0 {
			off = offsets[i-1] + headerSize + int64(len(recs[i-1].Payload))
		}
		if r.Offset != off || r.Length != int64(len(recs[i].Payload)) || !r.CRCOK {
			t.Fatalf("record %d: %+v, want offset %d length %d", i, r, off, len(recs[i].Payload))
		}
		offsets = append(offsets, off)
	}

	// Corrupt record 3's payload: Inspect should list records 0-2 as
	// intact, record 3 with CRCOK=false, and a torn tail from record 3
	// onward.
	raw[offsets[3]+headerSize] ^= 0xFF
	bad := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Inspect(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 4 {
		t.Fatalf("corrupt log: %d records listed, want 4 (3 good + 1 bad)", len(rep.Records))
	}
	for i := 0; i < 3; i++ {
		if !rep.Records[i].CRCOK {
			t.Fatalf("record %d marked bad", i)
		}
	}
	if rep.Records[3].CRCOK {
		t.Fatal("corrupted record marked CRC-ok")
	}
	if !rep.Torn() || rep.GoodBytes != offsets[3] {
		t.Fatalf("torn tail not reported: %+v, want good=%d", rep, offsets[3])
	}

	// A truncated header (crash mid-append) is reported as torn with no
	// bad-frame entry.
	cut := filepath.Join(dir, "cut.wal")
	if err := os.WriteFile(cut, raw[:offsets[2]+4], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Inspect(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || !rep.Torn() || rep.GoodBytes != offsets[2] {
		t.Fatalf("truncated-header report wrong: %+v", rep)
	}
}

// TestInspectMatchesScan cross-checks Inspect's frame layout against
// the append-side framing for every record size class.
func TestInspectMatchesScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 64, 255, 4096}
	for i, n := range sizes {
		if err := l.Append(byte(i), bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	rep, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(sizes) {
		t.Fatalf("%d records, want %d", len(rep.Records), len(sizes))
	}
	off := int64(0)
	for i, r := range rep.Records {
		if r.Type != byte(i) || r.Length != int64(sizes[i]) || r.Offset != off {
			t.Fatalf("record %d: %+v, want type=%d len=%d off=%d", i, r, i, sizes[i], off)
		}
		off += headerSize + int64(sizes[i])
	}
	// Sanity: the length field really is where Inspect thinks it is.
	raw, _ := os.ReadFile(path)
	if got := binary.BigEndian.Uint32(raw[rep.Records[4].Offset:]); got != 4096 {
		t.Fatalf("frame layout drifted: length field reads %d", got)
	}
}
