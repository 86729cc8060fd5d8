package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
)

// admissionTraffic drives one small stream through p: nine blocks
// arrive, each charged on arrival through admit, with cross-shard
// request / refund / retire traffic and one release in between.
func admissionTraffic(t *testing.T, p *Platform, admit func(data.BlockID, privacy.Budget) error) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := data.BlockID(0); id < 9; id++ {
		must(admit(id, privacy.MustBudget(0.05, 1e-9)))
		if id == 4 {
			must(p.AC.Request([]data.BlockID{0, 1, 2, 3}, privacy.MustBudget(0.25, 1e-8)))
		}
	}
	must(p.AC.Refund([]data.BlockID{1, 2}, privacy.MustBudget(0.125, 0)))
	must(p.AC.Request([]data.BlockID{3, 5, 8}, privacy.MustBudget(0.5, 0)))
	must(p.AC.Retire(0))
	p.Store.Publish(testBundle("m", 0.01))
}

// twoRecordAdmit is block admission as every commit before AdmitBlock
// journaled it: a register record with a zero budget, then a request.
func twoRecordAdmit(ac *core.AccessControl) func(data.BlockID, privacy.Budget) error {
	return func(id data.BlockID, charge privacy.Budget) error {
		ac.RegisterBlock(id)
		return ac.Request([]data.BlockID{id}, charge)
	}
}

// ledgerRecords counts the records in p's ledger segments.
func ledgerRecords(p *Platform) int {
	n := 0
	for _, seg := range p.ledgerSegs {
		n += seg.Records()
	}
	return n
}

// TestTwoRecordAdmissionLogsStillReplay is the format contract of block
// admission. testdata/two-record-admission-<N> holds the directory the
// commit before AdmitBlock wrote for admissionTraffic (register, then
// request: two records per block), in the single-segment and the
// three-segment layout. (1) The same traffic written the same way today
// produces those files byte for byte: ledger and store record formats,
// core.ShardOf and the segment file names have not moved. (2) Opening
// the old directory yields the same ledger, Snapshot() byte for byte, as
// the one-record form AdmitBlock writes. (3) The old directory keeps
// running: a block admitted on top of it survives a reopen.
func TestTwoRecordAdmissionLogsStillReplay(t *testing.T) {
	for _, nshards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", nshards), func(t *testing.T) {
			fixture := filepath.Join("testdata", fmt.Sprintf("two-record-admission-%d", nshards))
			names, err := os.ReadDir(fixture)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != nshards+1 {
				t.Fatalf("fixture holds %d files, want %d ledger segment(s) and the store log", len(names), nshards)
			}

			twoDir := t.TempDir()
			p := mustOpen(t, twoDir, Options{LedgerShards: nshards, NoSync: true})
			admissionTraffic(t, p, twoRecordAdmit(p.AC))
			twoRecords := ledgerRecords(p)
			p.Close()
			oldDir := t.TempDir()
			for _, e := range names {
				want, err := os.ReadFile(filepath.Join(fixture, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(twoDir, e.Name()))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: register-then-request traffic no longer writes the bytes it used to (err %v, %d bytes, fixture %d)",
						e.Name(), err, len(got), len(want))
				}
				if err := os.WriteFile(filepath.Join(oldDir, e.Name()), want, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			oneDir := t.TempDir()
			p = mustOpen(t, oneDir, Options{LedgerShards: nshards, NoSync: true})
			admissionTraffic(t, p, func(id data.BlockID, charge privacy.Budget) error {
				_, err := p.AC.AdmitBlock(id, charge)
				return err
			})
			oneRecord := ledgerRecords(p)
			want := p.AC.Snapshot()
			p.Close()
			if twoRecords-oneRecord != 9 {
				t.Fatalf("nine admissions took %d ledger records through AdmitBlock and %d as register-then-request: want one record less per block",
					oneRecord, twoRecords)
			}

			old := mustOpen(t, oldDir, Options{NoSync: true})
			if old.LedgerShards() != nshards {
				t.Fatalf("old directory opened with %d shard(s), want %d", old.LedgerShards(), nshards)
			}
			if got := old.AC.Snapshot(); !bytes.Equal(got, want) {
				t.Fatalf("two-record log replays to a different ledger than AdmitBlock's: %+v", viewOf(old.AC))
			}
			if ok, err := old.AC.AdmitBlock(9, privacy.MustBudget(0.05, 0)); !ok || err != nil {
				t.Fatalf("admitting on top of the old log: %v, %v", ok, err)
			}
			want = old.AC.Snapshot()
			old.Close()
			again := mustOpen(t, oldDir, Options{})
			defer again.Close()
			if !bytes.Equal(again.AC.Snapshot(), want) {
				t.Fatal("block admitted on top of a two-record log did not survive a reopen")
			}
			if v := again.Store.VersionCount("m"); v != 1 {
				t.Fatalf("old store log recovered %d versions, want 1", v)
			}
		})
	}
}
