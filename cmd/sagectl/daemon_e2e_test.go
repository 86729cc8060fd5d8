package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/durable"
	"repro/internal/privacy"
	"repro/internal/replica"
)

// buildSagectl compiles the sagectl binary (with -race when this test
// binary has it) and returns its path.
func buildSagectl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sagectl")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building sagectl: %v\n%s", err, out)
	}
	return bin
}

// daemonProc is one launched sagectl daemon child process.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	out  *lineBuffer
	// eof is closed once every line the child wrote has been captured.
	eof chan struct{}
}

// wait waits for the child to exit. os/exec's Wait closes the stdout
// pipe, so calling it while the capture goroutine is still reading can
// drop the child's last lines: wait for the reader to hit EOF first.
func (p *daemonProc) wait() error {
	<-p.eof
	return p.cmd.Wait()
}

// lineBuffer captures child output while letting the test wait for
// specific lines.
type lineBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *lineBuffer) add(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, line)
}

func (b *lineBuffer) contains(substr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func (b *lineBuffer) dump() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// startDaemon launches the daemon and waits for its listen line.
func startDaemon(t *testing.T, bin, walDir string, extra ...string) *daemonProc {
	t.Helper()
	return startProc(t, bin, append([]string{
		"daemon",
		"-wal", walDir,
		"-addr", "127.0.0.1:0",
		"-rows-per-block", "6000",
		"-pipelines", "2",
		"-sla", "0.04,0.042",
		"-eps0", "0.5",
		"-eps-cap", "0.5",
		"-compact-every", "5",
		"-ledger-shards", "3",
	}, extra...)...)
}

// startProc launches sagectl in a mode that runs the daemon loop
// (daemon, serve) and waits for its listen line.
func startProc(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave; the child writes mostly stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, out: &lineBuffer{}, eof: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.out.add(line)
			if strings.HasPrefix(line, "daemon: serving on ") {
				fields := strings.Fields(strings.TrimPrefix(line, "daemon: serving on "))
				select {
				case addrCh <- fields[0]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("daemon never announced its address; output:\n%s", p.out.dump())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return p
}

// status fetches /daemon/status.
func (p *daemonProc) status(t *testing.T) (daemon.Status, error) {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + "/daemon/status")
	if err != nil {
		return daemon.Status{}, err
	}
	defer resp.Body.Close()
	var st daemon.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return daemon.Status{}, err
	}
	return st, nil
}

// durableView is the cross-crash invariant: the exact ledger and store
// state the WAL certifies.
type durableView struct {
	Blocks    []daemon.BlockStatus
	LossEps   float64
	LossDelta float64
	Versions  map[string]int
}

func viewFromStatus(st daemon.Status) durableView {
	return durableView{
		Blocks:    st.Blocks,
		LossEps:   st.StreamLossEps,
		LossDelta: st.StreamLossDelta,
		Versions:  st.StoreVersions,
	}
}

// TestDaemonKillRestart is the durability acceptance test: run the real
// sagectl daemon binary against live (auth-gated) replicas, SIGKILL it
// mid-loop, verify the WAL's recovered state in-process, relaunch the
// daemon on the same WAL, and require (1) the relaunched daemon reports
// exactly the recovered ledger/store state, (2) the replica tier
// converges to the recovered store with no manual intervention, and
// (3) a SIGTERM drains the relaunched daemon cleanly.
func TestDaemonKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a child binary; skipped in -short")
	}
	bin := buildSagectl(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	tok := "e2e-secret"
	repA := replica.NewServer(replica.WithAuthToken(tok))
	srvA := httptest.NewServer(repA.Handler())
	defer srvA.Close()
	repB := replica.NewServer(replica.WithAuthToken(tok))
	srvB := httptest.NewServer(repB.Handler())
	defer srvB.Close()
	pushList := srvA.URL + "," + srvB.URL

	// Phase 1: run until it has published and is deep enough in the
	// loop that a kill lands mid-flight state, then SIGKILL — no drain,
	// no final sync, no compaction.
	d1 := startDaemon(t, bin, walDir,
		"-tick", "30ms", "-push", pushList, "-push-token", tok)
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := d1.status(t)
		if err == nil && st.Published >= 2 && st.Ticks >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon made no progress before deadline; output:\n%s", d1.out.dump())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()

	// The offline inspector must read the post-kill directory (possibly
	// with a torn tail) without error and see the sharded layout.
	insp, err := exec.Command(bin, "wal", "-wal", walDir, "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("sagectl wal after kill: %v\n%s", err, insp)
	}
	for _, f := range []string{"ledger-0-of-3.wal", "ledger-1-of-3.wal", "ledger-2-of-3.wal", "store.wal"} {
		if !strings.Contains(string(insp), f) {
			t.Fatalf("sagectl wal output missing %s:\n%s", f, insp)
		}
	}

	// Phase 2: open the WAL in-process. This is the ground truth the
	// relaunched daemon must reproduce. (Opening also truncates any
	// torn tail the kill produced — exactly what the daemon will see.)
	plat, stats, err := durable.Open(walDir, core.Policy{Global: privacy.MustBudget(1.0, 1e-6)}, durable.Options{})
	if err != nil {
		t.Fatalf("recovering WAL after kill: %v", err)
	}
	if stats.Ledger.Records == 0 {
		t.Fatal("killed daemon left an empty ledger WAL")
	}
	want := durableView{
		Blocks:   daemon.LedgerStatus(plat.AC),
		Versions: plat.Store.Watermarks(),
	}
	loss := plat.AC.StreamLoss()
	want.LossEps, want.LossDelta = loss.Epsilon, loss.Delta
	if len(want.Versions) == 0 {
		t.Fatal("killed daemon left no releases in the store WAL")
	}
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: relaunch on the same WAL with a tick so long the loop
	// cannot run before we inspect it: the status it serves is pure
	// recovered state. Startup self-healing must converge the replicas
	// (one of which may have missed the last pre-kill push) without any
	// Sync call.
	d2 := startDaemon(t, bin, walDir,
		"-tick", "1h", "-push", pushList, "-push-token", tok)
	st2, err := d2.status(t)
	if err != nil {
		t.Fatal(err)
	}
	got := viewFromStatus(st2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("relaunched daemon state differs from WAL ground truth:\n got %+v\nwant %+v", got, want)
	}
	if st2.Ticks != 0 {
		t.Fatalf("relaunched daemon already ran %d ticks", st2.Ticks)
	}
	// NextBlock must resume exactly past the highest recovered block.
	if len(st2.Blocks) > 0 {
		if high := st2.Blocks[len(st2.Blocks)-1].ID; st2.NextBlock != high+1 {
			t.Fatalf("stream position %d, want %d", st2.NextBlock, high+1)
		}
	}

	// Replica convergence: both replicas report exactly the recovered
	// store's watermarks.
	for name, url := range map[string]string{"A": srvA.URL, "B": srvB.URL} {
		wm := fetchWatermarks(t, url)
		if !reflect.DeepEqual(wm, want.Versions) {
			t.Fatalf("replica %s watermarks %v, want %v", name, wm, want.Versions)
		}
	}

	// The relaunched daemon keeps serving the recovered models.
	resp, err := http.Get("http://" + d2.addr + "/models")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(raw), "taxi-lr-") {
		t.Fatalf("recovered daemon /models: %d %s", resp.StatusCode, raw)
	}

	// Phase 4: graceful drain. SIGTERM must exit 0 through the drain
	// path (final replica sync, compaction, WAL close).
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v; output:\n%s", err, d2.out.dump())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not drain on SIGTERM; output:\n%s", d2.out.dump())
	}
	if !d2.out.contains("drained cleanly") {
		t.Fatalf("drain message missing; output:\n%s", d2.out.dump())
	}

	// The drain compacted the WALs; a final in-process open must still
	// see the identical state.
	plat2, _, err := durable.Open(walDir, core.Policy{Global: privacy.MustBudget(1.0, 1e-6)}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plat2.Close()
	final := durableView{
		Blocks:   daemon.LedgerStatus(plat2.AC),
		Versions: plat2.Store.Watermarks(),
	}
	loss = plat2.AC.StreamLoss()
	final.LossEps, final.LossDelta = loss.Epsilon, loss.Delta
	if !reflect.DeepEqual(final, want) {
		t.Fatalf("post-drain WAL state differs:\n got %+v\nwant %+v", final, want)
	}
}

func fetchWatermarks(t *testing.T, base string) map[string]int {
	t.Helper()
	resp, err := http.Get(base + "/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Watermarks map[string]int `json:"watermarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Watermarks
}

// TestMain keeps `go test ./cmd/sagectl` hermetic: the e2e builds the
// binary itself, but a stray GOFLAGS (-mod=vendor etc.) from the
// environment would break it, so normalize the obvious ones.
func TestMain(m *testing.M) {
	os.Unsetenv("GOFLAGS")
	code := m.Run()
	if code != 0 {
		fmt.Fprintln(os.Stderr, "sagectl e2e failed")
	}
	os.Exit(code)
}
