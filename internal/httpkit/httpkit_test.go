package httpkit_test

import (
	"encoding/json"
	"go/ast"
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
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// tier is what every HTTP tier declares: its rows, and the one handler
// serving them with the shared surface.
type tier interface {
	Routes() []httpkit.Route
	Handler() http.Handler
}

// tiers declares every HTTP tier in the tree, each as a constructor
// taking the tier's tracer (nil = the -debug surface off). The tests
// below walk the declarations; a tier assembled without httpkit fails
// them on the first shared route it forgot. The replica and the
// gateway, which fronts one, serve model "m", so a serving body is read
// to its end upstream.
var tiers = map[string]func(t *testing.T, tracer *trace.Tracer) tier{
	"daemon": func(t *testing.T, tracer *trace.Tracer) tier {
		d, _, err := daemon.New(daemon.Config{
			Dir: t.TempDir(), Global: privacy.MustBudget(1, 1e-6), NoSync: true, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	},
	"replica": func(t *testing.T, tracer *trace.Tracer) tier {
		return replicaOfM(t, replica.WithTracer(tracer))
	},
	"gateway": func(t *testing.T, tracer *trace.Tracer) tier {
		backend := httptest.NewServer(replicaOfM(t).Handler())
		t.Cleanup(backend.Close)
		g, err := gateway.New(gateway.Config{Backends: []string{backend.URL}, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		return g
	},
}

// modelM is a one-feature linear model named "m", as a source store
// publishes it.
func modelM(t *testing.T) store.Bundle {
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	src := store.New()
	src.Publish(store.Bundle{Name: "m", Model: spec})
	b, _ := src.Get("m", 1)
	return *b
}

// replicaOfM is a replica that has applied modelM.
func replicaOfM(t *testing.T, opts ...replica.ServerOption) *replica.Server {
	rep := replica.NewServer(opts...)
	if _, err := rep.Store().Apply(modelM(t)); err != nil {
		t.Fatal(err)
	}
	return rep
}

func get(h http.Handler, method, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// TestEveryTierServesTheSharedSurface: /metrics on every tier, always;
// /debug/trace and /debug/pprof/ on every tier exactly when it has a
// tracer; and the tier's own answers beside them — an unknown path is
// the mux's 404 on every tier, the gateway included, and the gateway
// refuses to route pushes.
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
				h := build(t, tracer).Handler()

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

// TestEveryTierTracesItsOwnRoutesOnly: the server span is the kit's, so
// with a tracer every tier continues an incoming traceparent on its own
// routes — one span, in the caller's trace — and a scrape of the shared
// surface is not a request: it leaves no span behind.
func TestEveryTierTracesItsOwnRoutesOnly(t *testing.T) {
	own := map[string]string{"daemon": "/daemon/status", "replica": "/replica/status", "gateway": "/gateway/status"}
	for name, build := range tiers {
		t.Run(name, func(t *testing.T) {
			tracer := trace.New(trace.Config{Service: name})
			h := build(t, tracer).Handler()
			for _, path := range []string{"/metrics", "/debug/trace", "/debug/pprof/cmdline"} {
				get(h, http.MethodGet, path)
			}
			if snap := tracer.Snapshot(); len(snap.Recent) != 0 {
				t.Fatalf("scraping the shared surface left spans: %+v", snap.Recent)
			}

			const traceID = "0af7651916cd43dd8448eb211c80319c"
			req := httptest.NewRequest(http.MethodGet, own[name], nil)
			req.Header.Set(trace.Header, "00-"+traceID+"-b7ad6b7169203331-01")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", own[name], rec.Code)
			}
			_, body := get(h, http.MethodGet, "/debug/trace?trace="+traceID)
			var snap trace.Snapshot
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Recent) != 1 || snap.Recent[0].Name != "GET "+own[name] ||
				snap.Recent[0].ParentID != "b7ad6b7169203331" || snap.Recent[0].Status != http.StatusOK {
				t.Fatalf("GET %s with a traceparent: want one server span continuing it, got %+v", own[name], snap.Recent)
			}
		})
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestEveryTierServesItsDeclaredRows holds each tier's declared rows
// (Routes) and its one mux to each other:
//
//   - every row is served: a request built from its pattern reaches the
//     row's handler, not the mux's 404 or 405;
//   - a declared path asked with another method answers 405;
//   - a row's Body budget is exact: a body of Body bytes reaches the
//     handler and one of Body+1 is 413, whether it declares its length
//     or not (a chunked client body, or a large one the gateway
//     forwards) — on the gateway too, where the body is buffered and
//     forwarded to a replica that reads it whole.
//
// What is not declared is not served (the unknown path above). A body
// that declares its length carries Content-Encoding: gzip, which the
// serving API ignores and which POST /push answers 415 before reading
// the body, instead of reading 64 MiB; one of unknown length carries
// none, since only a read can find it past the budget.
func TestEveryTierServesItsDeclaredRows(t *testing.T) {
	const muxNotFound = "404 page not found\n"
	for name, build := range tiers {
		t.Run(name, func(t *testing.T) {
			tr := build(t, nil)
			if d, ok := tr.(*daemon.Daemon); ok {
				// Serve "m" on the daemon too, so every tier reads a
				// serving body to its end.
				d.Platform().Store.Publish(modelM(t))
			}
			h := tr.Handler()
			serve := func(method, path string, n int64, declared bool) (int, string) {
				req := httptest.NewRequest(method, path+"?model=m", io.LimitReader(spaces{}, n))
				req.ContentLength = -1
				if declared {
					req.ContentLength = n
					req.Header.Set("Content-Encoding", "gzip")
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec.Code, rec.Body.String()
			}
			for _, rt := range tr.Routes() {
				method, path, ok := strings.Cut(rt.Pattern, " ")
				if !ok {
					method, path = http.MethodPost, rt.Pattern
				}
				path = strings.ReplaceAll(path, "{name}", "m")
				if code, body := serve(method, path, 0, true); code == http.StatusMethodNotAllowed || body == muxNotFound {
					t.Errorf("%s: %s %s is not served: %d %q", rt.Pattern, method, path, code, body)
				}
				if ok {
					other := http.MethodPost
					if method == http.MethodPost {
						other = http.MethodGet
					}
					if code, _ := serve(other, path, 0, true); code != http.StatusMethodNotAllowed {
						t.Errorf("%s: %s %s answered %d, want 405", rt.Pattern, other, path, code)
					}
				}
				if rt.Body == 0 {
					continue
				}
				for _, declared := range []bool{true, false} {
					length := map[bool]string{true: "declared", false: "undeclared"}[declared]
					if code, body := serve(method, path, rt.Body, declared); code == http.StatusRequestEntityTooLarge || body == muxNotFound {
						t.Errorf("%s: a %d-byte body (the budget, %s) did not reach the handler: %d %q", rt.Pattern, rt.Body, length, code, body)
					}
					if code, body := serve(method, path, rt.Body+1, declared); code != http.StatusRequestEntityTooLarge {
						t.Errorf("%s: a %d-byte body (budget+1, %s) answered %d %q, want 413", rt.Pattern, rt.Body+1, length, code, body)
					}
				}
			}
		})
	}
}

// TestTierDeclarationsAreComplete is the other half of the bijection:
// the packages under internal/ that call httpkit.Handler (a tier has to,
// to get /metrics at all) are exactly the declared tiers — a new tier
// without a declaration fails here, as does a declaration whose tier is
// gone. Keyed on the call, not the import: internal/store builds a bare
// mux with httpkit.Mux and is mounted by tiers, not one itself.
func TestTierDeclarationsAreComplete(t *testing.T) {
	files, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Handler" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "httpkit" {
					callers[filepath.Base(filepath.Dir(file))] = true
				}
			}
			return true
		})
	}
	for pkg := range callers {
		if tiers[pkg] == nil {
			t.Errorf("internal/%s builds its handler with httpkit but has no declaration in tiers", pkg)
		}
	}
	for name := range tiers {
		if !callers[name] {
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
