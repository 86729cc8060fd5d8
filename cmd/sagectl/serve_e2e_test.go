package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeE2E runs the real `sagectl serve` binary: the daemon under
// its demo preset. Twelve days of stream must leave at least one
// release being served, the whole daemon surface must be up (serving
// API, /metrics, and with -debug the trace export with complete tick
// trees and pprof), and SIGTERM must exit 0 and take the throwaway WAL
// directory with it.
func TestServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child binary; skipped in -short")
	}
	bin := buildSagectl(t)
	p := startProc(t, bin, "serve", "-addr", "127.0.0.1:0", "-days", "12", "-debug")
	base := "http://" + p.addr

	// The listen line names the WAL directory the preset made up.
	var walDir string
	for _, line := range strings.Split(p.out.dump(), "\n") {
		if _, rest, ok := strings.Cut(line, "(wal "); ok {
			walDir = strings.TrimSuffix(rest, ")")
		}
	}
	if fi, err := os.Stat(walDir); err != nil || !fi.IsDir() {
		t.Fatalf("serve's WAL directory %q is not there while it runs: %v\n%s", walDir, err, p.out.dump())
	}

	// The loop runs its 12 ticks, then the listener stays up.
	deadline := time.Now().Add(120 * time.Second)
	for !p.out.contains("until SIGTERM") {
		if time.Now().After(deadline) {
			t.Fatalf("serve never finished its ticks; output:\n%s", p.out.dump())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, err := p.status(t)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 12 || len(st.Blocks) != 12 {
		t.Fatalf("-days 12 ran %d ticks over %d blocks", st.Ticks, len(st.Blocks))
	}

	resp, err := http.Get(base + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil || len(models) == 0 {
		t.Fatalf("GET /models after 12 days: %d model(s), err %v; output:\n%s", len(models), err, p.out.dump())
	}

	fams := scrapeMetrics(t, base, "serve.metrics.txt")
	if got := mustValue(t, fams, "sage_daemon_ticks", nil); got != 12 {
		t.Fatalf("sage_daemon_ticks = %v, want 12", got)
	}
	assertTickTree(t, scrapeTrace(t, base, "serve.trace.json"), "serve")
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline: HTTP %d", resp.StatusCode)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not exit 0 on SIGTERM: %v\n%s", err, p.out.dump())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("serve did not exit on SIGTERM; output:\n%s", p.out.dump())
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Fatalf("throwaway WAL directory %s survived the exit (stat err %v)", walDir, err)
	}
}
