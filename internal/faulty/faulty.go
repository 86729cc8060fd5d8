// Package faulty is Sage's fault-injection layer: a reusable way to put
// a *misbehaving network* between any HTTP client and server in-process,
// so the platform's fault tolerance is tested against an explicit fault
// model instead of assumed. The model covers the failure classes a
// serving fleet actually sees:
//
//   - latency: a slow link or an overloaded replica (added delay);
//   - error: a 5xx from a broken replica (handler side) or a transport
//     error such as connection refused (client side);
//   - hang: a stalled replica that accepts the connection and then
//     never answers — the failure mode that distinguishes
//     deadline-propagating clients from ones that block forever;
//   - reset: the connection is torn down mid-request (process killed,
//     NAT entry expired), surfacing as an abrupt EOF/ECONNRESET;
//   - partial: the response advertises its full length but delivers
//     only a prefix before the reset — the case that separates
//     "got a response" from "got the *whole* response".
//
// Faults fire by rule. A Rule matches requests (method/path prefix) and
// fires deterministically: an optional per-rule cap on how many times it
// fires (First), a modulus (Every k-th match), and a probability drawn
// from the injector's seeded RNG (internal/rng — the same seed always
// yields the same decision sequence for the same request order). Rules
// are evaluated in order; the first one that fires wins.
//
// Two integration points cover both halves of the platform:
//
//   - Handler wraps an http.Handler (a replica, a gateway backend) so
//     faults happen "at the server" — this is what the gateway chaos
//     tests use to kill and stall replicas mid-traffic;
//   - Transport wraps an http.RoundTripper so faults happen "at the
//     client" — this is what the publisher-path tests use to make
//     pushes flaky without touching the replica.
//
// The rule set can be swapped atomically at any time (Set/Clear), which
// is how a chaos test "recovers" a replica: in-flight hangs are released
// and subsequent requests pass through untouched.
package faulty

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Mode is the action a fired rule takes.
type Mode int

const (
	// Pass lets the request through (useful for latency-only rules).
	Pass Mode = iota
	// Error fails fast: a 500 from the Handler wrapper, a transport
	// error from the Transport wrapper.
	Error
	// Hang blocks the request until the caller's context is done (the
	// Handler wrapper then aborts the connection) or the rule set is
	// replaced, in which case the request proceeds normally.
	Hang
	// Reset tears the connection down abruptly: the peer sees an
	// unexpected EOF / connection reset, not an HTTP error.
	Reset
	// Partial serves the inner response's headers and Content-Length
	// but delivers only half the body before resetting — the response
	// looks fine until the byte count doesn't add up.
	Partial
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Error:
		return "error"
	case Hang:
		return "hang"
	case Reset:
		return "reset"
	case Partial:
		return "partial"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Rule is one fault-injection rule. The zero predicates match every
// request and fire every time; set Method/Path to narrow the match and
// First/Every/P to thin out the firings.
type Rule struct {
	// Method matches the request method exactly ("" = any).
	Method string
	// Path matches a request-path prefix ("" = any).
	Path string
	// Mode is the injected fault (default Pass).
	Mode Mode
	// Latency is added before Mode is applied (also with Mode Pass, for
	// pure slow-link injection). The sleep respects the request context.
	Latency time.Duration
	// First, when > 0, fires the rule only for the first N matching
	// requests — "the replica was broken, then recovered".
	First int
	// Every, when > 0, fires on the 1st, (1+Every)th, ... matching
	// request — a periodically flaky dependency.
	Every int
	// P, when in (0, 1), gates each firing on a coin flip from the
	// injector's seeded RNG; 0 (or ≥ 1) means always.
	P float64
}

func (r Rule) matches(req *http.Request) bool {
	if r.Method != "" && req.Method != r.Method {
		return false
	}
	if r.Path != "" && !strings.HasPrefix(req.URL.Path, r.Path) {
		return false
	}
	return true
}

// ruleState pairs a rule with its per-rule match counter.
type ruleState struct {
	Rule
	matched int
	fired   int
}

// Injector decides, per request, whether and how to misbehave. One
// injector may back any number of Handler/Transport wrappers; decisions
// are serialized, so given a fixed request order the decision sequence
// is a pure function of the seed.
type Injector struct {
	mu      sync.Mutex
	rnd     *rng.RNG
	rules   []*ruleState
	fired   int64
	release chan struct{} // closed on Set/Clear to free hanging requests
}

// New returns an injector with no rules (everything passes) whose
// probabilistic decisions derive from seed.
func New(seed uint64) *Injector {
	return &Injector{rnd: rng.New(seed), release: make(chan struct{})}
}

// Set atomically replaces the rule set. Requests currently blocked in a
// Hang are released and proceed normally — replacing the rules is how a
// test "heals" the fault.
func (i *Injector) Set(rules ...Rule) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = make([]*ruleState, len(rules))
	for k, r := range rules {
		i.rules[k] = &ruleState{Rule: r}
	}
	close(i.release)
	i.release = make(chan struct{})
}

// Clear removes all rules and releases hanging requests.
func (i *Injector) Clear() { i.Set() }

// Fired reports how many faults (including latency-only Pass rules)
// have fired so far — tests use it to prove injection actually engaged.
func (i *Injector) Fired() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// decide picks the fault for one request: the first rule that matches
// and fires. It returns the winning rule's mode and latency, and the
// release channel current at decision time (for Hang).
func (i *Injector) decide(req *http.Request) (Mode, time.Duration, <-chan struct{}) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, rs := range i.rules {
		if !rs.matches(req) {
			continue
		}
		rs.matched++
		if rs.First > 0 && rs.matched > rs.First {
			continue
		}
		if rs.Every > 0 && (rs.matched-1)%rs.Every != 0 {
			continue
		}
		if rs.P > 0 && rs.P < 1 && !i.rnd.Bool(rs.P) {
			continue
		}
		rs.fired++
		i.fired++
		return rs.Mode, rs.Latency, i.release
	}
	return Pass, 0, i.release
}

// sleep waits d or until the request context is done, reporting whether
// the full latency elapsed.
func sleep(req *http.Request, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-req.Context().Done():
		return false
	case <-t.C:
		return true
	}
}

// Handler wraps inner so the injector misbehaves "at the server". Reset
// and timed-out hangs abort the connection via http.ErrAbortHandler —
// the peer sees a transport-level failure, exactly like a killed
// process, not a well-formed HTTP error.
func (i *Injector) Handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode, latency, release := i.decide(r)
		if !sleep(r, latency) {
			panic(http.ErrAbortHandler)
		}
		switch mode {
		case Error:
			http.Error(w, "faulty: injected server error", http.StatusInternalServerError)
		case Hang:
			select {
			case <-r.Context().Done():
				// The client gave up first; cut the connection.
				panic(http.ErrAbortHandler)
			case <-release:
				// The fault was healed mid-request; answer normally.
				inner.ServeHTTP(w, r)
			}
		case Reset:
			panic(http.ErrAbortHandler)
		case Partial:
			rec := newRecorder()
			inner.ServeHTTP(rec, r)
			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.Header().Set("Content-Length", fmt.Sprint(rec.body.Len()))
			w.WriteHeader(rec.code)
			_, _ = w.Write(rec.body.Bytes()[:rec.body.Len()/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			// The advertised length can now never be satisfied; tear the
			// connection down so the client sees an unexpected EOF.
			panic(http.ErrAbortHandler)
		default:
			inner.ServeHTTP(w, r)
		}
	})
}

// recorder buffers an inner handler's response so Partial can truncate
// it. (httptest.ResponseRecorder lives in a test-only package; this is
// the three-field subset production code may depend on.)
type recorder struct {
	header http.Header
	body   *bytes.Buffer
	code   int
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), body: &bytes.Buffer{}, code: http.StatusOK}
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// transportError is the injected client-side failure.
type transportError struct{ mode Mode }

func (e *transportError) Error() string { return "faulty: injected " + e.mode.String() }

// Transport wraps inner so the injector misbehaves "at the client":
// Error/Reset surface as transport errors (like connection refused /
// ECONNRESET), Hang blocks until the request context is done or the
// rules change, Partial truncates the response body mid-stream.
func (i *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		mode, latency, release := i.decide(req)
		if !sleep(req, latency) {
			return nil, req.Context().Err()
		}
		switch mode {
		case Error, Reset:
			// Drain nothing; the "connection" failed.
			return nil, &transportError{mode: mode}
		case Hang:
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-release:
				return inner.RoundTrip(req)
			}
		case Partial:
			resp, err := inner.RoundTrip(req)
			if err != nil {
				return nil, err
			}
			resp.Body = &truncatingBody{inner: resp.Body, remain: maxInt64(resp.ContentLength/2, 1)}
			return resp, nil
		default:
			return inner.RoundTrip(req)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// truncatingBody yields a prefix of the real body and then fails like a
// cut connection instead of a clean EOF.
type truncatingBody struct {
	inner  io.ReadCloser
	remain int64
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.inner.Read(p)
	t.remain -= int64(n)
	if err == io.EOF {
		// The inner body ended before the cut point; keep the clean EOF.
		return n, err
	}
	return n, err
}

func (t *truncatingBody) Close() error { return t.inner.Close() }

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
