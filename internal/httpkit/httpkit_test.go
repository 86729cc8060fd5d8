package httpkit_test

import (
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/gateway"
	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/trace"
)

// tiers declares every HTTP tier in the tree, each as a constructor
// taking the tier's tracer (nil = the -debug surface off). The test
// below walks the declarations; a tier assembled without httpkit fails
// it on the first shared route it forgot.
var tiers = map[string]func(t *testing.T, tracer *trace.Tracer) http.Handler{
	"daemon": func(t *testing.T, tracer *trace.Tracer) http.Handler {
		d, _, err := daemon.New(daemon.Config{
			Dir: t.TempDir(), Global: privacy.MustBudget(1, 1e-6), NoSync: true, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d.Handler()
	},
	"replica": func(t *testing.T, tracer *trace.Tracer) http.Handler {
		return replica.NewServer(replica.WithTracer(tracer)).Handler()
	},
	"gateway": func(t *testing.T, tracer *trace.Tracer) http.Handler {
		backend := httptest.NewServer(replica.NewServer().Handler())
		t.Cleanup(backend.Close)
		g, err := gateway.New(gateway.Config{Backends: []string{backend.URL}, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		return g.Handler()
	},
}

func get(h http.Handler, method, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// TestEveryTierServesTheSharedSurface: /metrics on every tier, always;
// /debug/trace and /debug/pprof/ on every tier exactly when it has a
// tracer; and the tier's own answers — unknown paths, the gateway's
// refusal to route pushes — exactly as they are without the kit in
// front.
func TestEveryTierServesTheSharedSurface(t *testing.T) {
	for name, build := range tiers {
		for _, debug := range []bool{false, true} {
			var tracer *trace.Tracer
			label := name
			if debug {
				tracer = trace.New(trace.Config{Service: name})
				label += "+tracer"
			}
			t.Run(label, func(t *testing.T) {
				h := build(t, tracer)

				code, body := get(h, http.MethodGet, "/metrics")
				if code != http.StatusOK {
					t.Fatalf("GET /metrics: %d", code)
				}
				if _, err := metrics.Parse(strings.NewReader(body)); err != nil {
					t.Fatalf("GET /metrics is not valid exposition: %v", err)
				}
				if !strings.Contains(body, "sage_"+name+"_") {
					t.Errorf("GET /metrics carries no sage_%s_ family — whose registry is this?", name)
				}

				want := http.StatusNotFound
				if debug {
					want = http.StatusOK
				}
				for _, path := range []string{"/debug/trace", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
					if code, _ := get(h, http.MethodGet, path); code != want {
						t.Errorf("GET %s: %d, want %d", path, code, want)
					}
				}

				if code, body := get(h, http.MethodGet, "/no/such/route"); code != http.StatusNotFound || body != "404 page not found\n" {
					t.Errorf("unknown path: %d %q", code, body)
				}
				if name == "gateway" {
					code, body := get(h, http.MethodPost, "/push")
					if code != http.StatusForbidden || !strings.Contains(body, "the gateway only routes reads") {
						t.Errorf("POST /push on the gateway: %d %q", code, body)
					}
				}
			})
		}
	}
}

// TestTierDeclarationsAreComplete is the other half of the bijection:
// the packages under internal/ that import httpkit (a tier has to, to
// get /metrics at all) are exactly the declared tiers — a new tier
// without a declaration fails here, as does a declaration whose tier is
// gone.
func TestTierDeclarationsAreComplete(t *testing.T) {
	files, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	importers := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/httpkit"` {
				importers[filepath.Base(filepath.Dir(file))] = true
			}
		}
	}
	for pkg := range importers {
		if tiers[pkg] == nil {
			t.Errorf("internal/%s builds its handler with httpkit but has no declaration in tiers", pkg)
		}
	}
	for name := range tiers {
		if !importers[name] {
			t.Errorf("tier %q is declared but internal/%s does not use httpkit", name, name)
		}
	}
}

func TestNewServerBoundsSlowClients(t *testing.T) {
	srv := httpkit.NewServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("a timeout is unset: %+v", srv)
	}
}
