// http.go is the tracer's HTTP surface: the traceparent header
// contract, context carriage, server middleware, and the /debug/trace
// export handler.
package trace

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
)

// Header is the cross-tier propagation header (W3C trace-context).
const Header = "traceparent"

// headerLen is len("00-") + 32 + len("-") + 16 + len("-01").
const headerLen = 55

// ParseTraceparent parses a traceparent header value. It accepts any
// known-shape version-00 header with nonzero ids and any flags byte;
// everything else reports ok=false and the receiver starts fresh.
func ParseTraceparent(s string) (traceID TraceID, spanID SpanID, ok bool) {
	if len(s) != headerLen || s[0] != '0' || s[1] != '0' ||
		s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(traceID[:], []byte(s[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(spanID[:], []byte(s[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if !isHex(s[53]) || !isHex(s[54]) {
		return TraceID{}, SpanID{}, false
	}
	if traceID.IsZero() || spanID.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return traceID, spanID, true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Traceparent renders the header value naming s as parent ("" on nil):
// version 00, sampled flag 01.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	buf := make([]byte, headerLen)
	copy(buf, "00-")
	hex.Encode(buf[3:35], s.rec.traceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], s.rec.spanID[:])
	copy(buf[52:], "-01")
	return string(buf)
}

// Inject stamps s as the parent of the outgoing request carrying h,
// replacing any traceparent already present (e.g. one copied from the
// inbound request). No-op on a nil span.
func Inject(s *Span, h http.Header) {
	if s == nil {
		return
	}
	h.Set(Header, s.Traceparent())
}

// ctxKey carries a *Span in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying s. A nil span returns ctx unchanged
// (no allocation on the disabled path).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// CtxTraceID returns the hex trace id carried by ctx, or "" — the
// argument form metrics.Histogram.ObserveExemplar takes.
func CtxTraceID(ctx context.Context) string {
	return FromContext(ctx).TraceIDString()
}

// Middleware wraps next so every request runs under a server span:
// an incoming traceparent is continued (same trace, remote parent),
// otherwise a fresh trace starts. The span rides the request context
// and records the response status at End; a 5xx the handler did not
// classify itself (SetOutcome "shed", "unroutable") is an "error". On a
// nil tracer the handler is returned unchanged — the disabled serving
// path is byte-for-byte the untraced one, which is what keeps the
// pinned alloc budgets true.
func (t *Tracer) Middleware(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var s *Span
		if traceID, parent, ok := ParseTraceparent(r.Header.Get(Header)); ok {
			s = t.StartRemote(r.Method+" "+r.URL.Path, traceID, parent)
		} else {
			s = t.StartRoot(r.Method + " " + r.URL.Path)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ContextWith(r.Context(), s)))
		s.SetStatus(sw.code)
		if sw.code >= http.StatusInternalServerError && s.rec.outcome == "" {
			s.SetOutcome("error")
		}
		s.End()
	})
}

// statusWriter records the response status for the server span.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// DebugHandler serves the tracer snapshot as JSON (GET /debug/trace).
// exemplars, when non-nil, is evaluated per request and merged into
// the payload (callers pass their metric registry's exemplar table).
// ?trace=<32 hex digits> filters both span lists to one trace.
func (t *Tracer) DebugHandler(exemplars func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := t.Snapshot()
		if want := r.URL.Query().Get("trace"); want != "" {
			snap.Recent = filterSpans(snap.Recent, want)
			snap.Captured = filterSpans(snap.Captured, want)
		}
		if exemplars != nil {
			snap.Exemplars = exemplars()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	})
}

func filterSpans(spans []SpanJSON, traceID string) []SpanJSON {
	out := spans[:0]
	for _, s := range spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}
