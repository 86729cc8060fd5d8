package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestDaemonLifeGolden holds one fixed daemon life — 60 ticks of three
// pipelines, retention on, one compaction — to the digests recorded in
// testdata/daemon_life.golden: the sha256 of its releases (each
// canonical bundle, length prefixed, in store order) and of its ledger
// snapshot. Every tick's ingest, the StreamTrainer's Read and Split of
// each attempt, training, publish and retention are under it, so a
// change that claims to leave models and the ledger alone must leave
// these digests alone. Model weights are floats, so the digests pin
// amd64's arithmetic (see the experiments goldens) and skip elsewhere.
func TestDaemonLifeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests pin amd64 float arithmetic")
	}
	want, err := os.ReadFile("testdata/daemon_life.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(t.TempDir())
	cfg.Pipelines = 3
	cfg.SLATargets = []float64{0.04, 0.042, 0.041}
	cfg.Retention = 8
	cfg.CompactEvery = 40
	cfg.Epsilon0, cfg.EpsilonCap = 0.125, 0.5
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for n := 0; n < 60; n++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Status()
	if st.Published == 0 || st.Retried == 0 || st.RetiredBlocks == 0 || st.Compactions != 1 {
		t.Fatalf("the life lost its shape: %d published, %d retried, %d retired, %d compactions (want > 0, > 0, > 0, 1)",
			st.Published, st.Retried, st.RetiredBlocks, st.Compactions)
	}
	releases := sha256.New()
	for _, b := range d.Platform().Store.SnapshotBundles() {
		releases.Write(binary.BigEndian.AppendUint64(nil, uint64(len(b))))
		releases.Write(b)
	}
	got := fmt.Sprintf("releases %x\nledger %x\n", releases.Sum(nil), sha256.Sum256(d.Platform().AC.Snapshot()))
	if got != string(want) {
		t.Errorf("daemon life digests differ from testdata/daemon_life.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
