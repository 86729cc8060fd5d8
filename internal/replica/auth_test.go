package replica

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

func TestPushAuthRequired(t *testing.T) {
	rep := NewServer(WithAuthToken("sekrit"))
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()

	src := store.New()
	src.Publish(benchBundle(0))

	// No token: 401, permanent (no retry storm), nothing applied.
	noAuth := NewPublisher(src, []string{srv.URL})
	if err := noAuth.Sync(context.Background()); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated push: %v", err)
	}
	if !IsPermanent(unwrapJoined(t, noAuth.Sync(context.Background()))) {
		t.Fatal("401 should be a permanent error")
	}
	if rep.Store().VersionCount("bench") != 0 {
		t.Fatal("unauthenticated push was applied")
	}

	// Wrong token: still 401.
	badAuth := NewPublisher(src, []string{srv.URL}, WithAuth("wrong"))
	if err := badAuth.Sync(context.Background()); err == nil {
		t.Fatal("wrong-token push accepted")
	}

	// Right token: applied.
	auth := NewPublisher(src, []string{srv.URL}, WithAuth("sekrit"))
	if err := auth.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep.Store().VersionCount("bench") != 1 {
		t.Fatal("authenticated push not applied")
	}

	// The read API stays open without credentials.
	resp, err := http.Get(srv.URL + "/replica/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status without auth: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// unwrapJoined digs the single underlying error out of Sync's joined
// per-endpoint errors.
func unwrapJoined(t *testing.T, err error) error {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	return err
}
