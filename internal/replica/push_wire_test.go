package replica

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestPushBodyIsWALRecord pins the one-format claim end to end: what a
// replica reads off POST /push is byte for byte the payload the
// primary's store WAL journaled for that release, it is the release's
// canonical bytes, and no push declares a Content-Encoding. One
// release is a taxi-width model with the hour_speed table; the other
// adds a 48-block provenance (a full retention window), which takes it
// past 1 KiB.
func TestPushBodyIsWALRecord(t *testing.T) {
	dir := t.TempDir()
	plat, _, err := durable.Open(dir, core.Policy{Global: privacy.MustBudget(1, 1e-6)}, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	rep := NewServer()
	var received [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			wire, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(wire))
			if ce := r.Header.Values("Content-Encoding"); len(ce) != 0 {
				t.Errorf("push declares Content-Encoding %q", ce)
			}
			received = append(received, wire)
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	retained := benchBundle(2)
	retained.Name = "retained"
	for id := range 48 {
		retained.Provenance.Blocks = append(retained.Provenance.Blocks, data.BlockID(1000+id))
	}
	pub := NewPublisher(plat.Store, []string{srv.URL})
	for _, bundle := range []store.Bundle{benchBundle(1), retained} {
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
	if n := len(received[1]); n <= 1<<10 {
		t.Fatalf("the 48-block release is %d bytes on the wire; want over 1 KiB", n)
	}
	for i, name := range []string{"bench", "retained"} {
		if !bytes.Equal(received[i], records[i].Payload) {
			t.Errorf("%s: pushed body (%d bytes) differs from the store WAL record (%d bytes)", name, len(received[i]), len(records[i].Payload))
		}
		released, _ := plat.Store.Get(name, 1)
		if !bytes.Equal(received[i], released.CanonicalBytes()) {
			t.Errorf("%s: pushed body is not the release's canonical bytes", name)
		}
		applied, ok := rep.Store().Get(name, 1)
		if !ok || !bytes.Equal(applied.CanonicalBytes(), released.CanonicalBytes()) {
			t.Errorf("%s: replica's applied release diverges from the primary's", name)
		}
	}
}

// unreadBody is a request body that fails the test if it is read.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the push body was read")
	return 0, io.ErrUnexpectedEOF
}

// TestPushRefusesContentEncoding: a push body is a release's canonical
// bytes and nothing else. A push that declares any Content-Encoding but
// identity is answered 415 without its body being read, applies
// nothing and counts as a bad body; an unauthenticated one is still
// 401 first. A declared identity coding is the plain body.
func TestPushRefusesContentEncoding(t *testing.T) {
	rep := NewServer(WithAuthToken("tok"))
	h := rep.Handler()
	push := func(body io.Reader, n int64, auth string, codings ...string) int {
		req := httptest.NewRequest(http.MethodPost, "/push", body)
		req.ContentLength = n
		if auth != "" {
			req.Header.Set("Authorization", "Bearer "+auth)
		}
		for _, c := range codings {
			req.Header.Add("Content-Encoding", c)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, codings := range [][]string{{"gzip"}, {"deflate"}, {"br"}, {"identity, gzip"}, {"identity", "gzip"}} {
		before := rep.pushBadBody.Value()
		if code := push(unreadBody{t}, 1<<10, "tok", codings...); code != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Encoding %q: %d, want 415", codings, code)
		}
		if got := rep.pushBadBody.Value(); got != before+1 {
			t.Errorf("Content-Encoding %q: bad_body %d → %d, want +1", codings, before, got)
		}
	}
	if code := push(unreadBody{t}, 1<<10, "", "gzip"); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated gzip push: %d, want 401", code)
	}
	if wm := rep.Store().Watermarks(); len(wm) != 0 || rep.Store().Generation() != 0 {
		t.Fatalf("refused pushes changed the store: watermarks %v, generation %d", wm, rep.Store().Generation())
	}

	b := benchBundle(1)
	b.Version = 1
	raw := b.CanonicalBytes()
	if code := push(bytes.NewReader(raw), int64(len(raw)), "tok", "Identity"); code != http.StatusOK {
		t.Fatalf("identity-coded push: %d, want 200", code)
	}
	if rep.Store().VersionCount("bench") != 1 {
		t.Fatal("identity-coded push was not applied")
	}
}

// unservableSpecs decode like any release's, but their models do not
// build: a kind no replica serves, and a logistic model short of its
// Dim+1 params.
var unservableSpecs = map[string]store.ModelSpec{
	"unknown kind":    {Kind: "nope"},
	"logistic params": {Kind: "logistic", Dim: 2, Params: []float64{0.5, -0.5}},
}

// TestPushRefusesUnservableRelease: a replica stores only releases it
// can serve. A push whose body decodes but whose model does not build is
// answered 409 and counted rejected, like any refused release, and the
// replica's watermarks and generation stay where they were.
func TestPushRefusesUnservableRelease(t *testing.T) {
	rep := NewServer()
	h := rep.Handler()
	push := func(b store.Bundle) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/push", bytes.NewReader(b.CanonicalBytes())))
		return rec.Code
	}
	b := benchBundle(1)
	b.Version = 1
	if code := push(b); code != http.StatusOK {
		t.Fatalf("servable push: %d, want 200", code)
	}
	wms, gen := rep.Store().Watermarks(), rep.Store().Generation()
	for name, spec := range unservableSpecs {
		b := benchBundle(2)
		b.Version, b.Model = 2, spec
		before := rep.pushRejected.Value()
		if code := push(b); code != http.StatusConflict {
			t.Errorf("%s: push %d, want 409", name, code)
		}
		if got := rep.pushRejected.Value(); got != before+1 {
			t.Errorf("%s: rejected %v → %v, want +1", name, before, got)
		}
	}
	if got := rep.Store().Watermarks(); !maps.Equal(got, wms) || rep.Store().Generation() != gen {
		t.Errorf("refused pushes changed the replica: watermarks %v → %v, generation %d → %d",
			wms, got, gen, rep.Store().Generation())
	}
}
