package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestSyncGroupMultiLogDurability drives concurrent appenders over
// several logs sharing one SyncGroup and checks per-log exactly-once,
// order-preserving recovery — the flush substitution must not change
// any prefix/ordering semantics.
func TestSyncGroupMultiLogDurability(t *testing.T) {
	if !SyncGroupSupported() {
		t.Skip("no filesystem-wide sync on this platform")
	}
	dir := t.TempDir()
	g, err := NewSyncGroup(dir)
	if err != nil {
		t.Fatal(err)
	}
	const nlogs, writers, perWriter = 4, 8, 25
	logs := make([]*Log, nlogs)
	for i := range logs {
		l, _, err := Open(filepath.Join(dir, fmt.Sprintf("seg%d.wal", i)), Options{SyncGroup: g})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l := logs[(w+i)%nlogs]
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := l.Append(1, payload); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, l := range logs {
		l.Close()
	}
	g.Close()

	// Recover every log; per-writer sequence numbers must be strictly
	// increasing within each log (append order preserved) and the union
	// exactly the written set.
	seen := map[string]bool{}
	for i := range logs {
		_, recs, err := Open(filepath.Join(dir, fmt.Sprintf("seg%d.wal", i)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		lastPerWriter := map[byte]int{}
		for _, r := range recs {
			s := string(r.Payload)
			if seen[s] {
				t.Fatalf("record %q recovered twice", s)
			}
			seen[s] = true
			var w, seq int
			fmt.Sscanf(s, "w%d-%d", &w, &seq)
			if last, ok := lastPerWriter[byte(w)]; ok && seq <= last {
				t.Fatalf("log %d: writer %d order violated: %d after %d", i, w, seq, last)
			}
			lastPerWriter[byte(w)] = seq
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(seen), writers*perWriter)
	}
}

// TestSyncGroupClosedFailsAppends pins the sticky failure: a closed
// (or failed) group refuses further flushes and the affected log
// refuses further appends rather than acknowledging non-durable writes.
func TestSyncGroupClosedFailsAppends(t *testing.T) {
	if !SyncGroupSupported() {
		t.Skip("no filesystem-wide sync on this platform")
	}
	dir := t.TempDir()
	g, err := NewSyncGroup(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(filepath.Join(dir, "seg.wal"), Options{SyncGroup: g})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := l.Append(1, []byte("after-close")); err == nil {
		t.Fatal("append acknowledged after its sync group closed")
	}
	// Poisoned: even a later append must fail fast.
	if err := l.Append(1, []byte("again")); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
}
