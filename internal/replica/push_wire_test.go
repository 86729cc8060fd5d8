package replica

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestPushBodyIsWALRecord pins the one-format claim end to end: what a
// replica reads off POST /push (after gunzip, when the publisher
// compressed) is byte for byte the payload the primary's store WAL
// journaled for that release, and it hashes to the release's digest.
// One bundle is small enough to ship identity-encoded, one wide enough
// to ship gzip'd.
func TestPushBodyIsWALRecord(t *testing.T) {
	dir := t.TempDir()
	plat, _, err := durable.Open(dir, core.Policy{Global: privacy.MustBudget(1, 1e-6)}, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	rep := NewServer()
	var received [][]byte
	var encodings []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			wire, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(wire))
			body := wire
			if r.Header.Get("Content-Encoding") == "gzip" {
				zr, err := gzip.NewReader(bytes.NewReader(wire))
				if err != nil {
					t.Error(err)
				} else if body, err = io.ReadAll(zr); err != nil {
					t.Error(err)
				}
			}
			received = append(received, body)
			encodings = append(encodings, r.Header.Get("Content-Encoding"))
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	pub := NewPublisher(plat.Store, []string{srv.URL})
	for _, bundle := range []store.Bundle{benchBundle(1), wideBundle(0)} {
		if _, err := pub.Publish(bundle); err != nil {
			t.Fatal(err)
		}
	}
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}

	log, records, err := wal.Open(filepath.Join(dir, durable.StoreLogName), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(records) != 2 || len(received) != 2 {
		t.Fatalf("%d WAL records, %d pushes; want 2 and 2", len(records), len(received))
	}
	if encodings[0] != "" || encodings[1] != "gzip" {
		t.Fatalf("push encodings %q; want the small bundle identity and the wide one gzip", encodings)
	}
	for i, name := range []string{"bench", "wide"} {
		if !bytes.Equal(received[i], records[i].Payload) {
			t.Errorf("%s: pushed body (%d bytes) differs from the store WAL record (%d bytes)", name, len(received[i]), len(records[i].Payload))
		}
		released, _ := plat.Store.Get(name, 1)
		if sha256.Sum256(received[i]) != released.Digest() {
			t.Errorf("%s: pushed body does not hash to the release's digest", name)
		}
		applied, ok := rep.Store().Get(name, 1)
		if !ok || applied.Digest() != released.Digest() {
			t.Errorf("%s: replica's applied release diverges from the primary's", name)
		}
	}
}
