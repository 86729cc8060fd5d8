package trace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds the traceparent parser — every tier runs
// it on a header any client can set — arbitrary strings. It must never
// panic; what it accepts is exactly 55 bytes naming two non-zero ids
// which, rendered back the way Span.Traceparent renders them, parse to
// the same ids; and what it refuses yields zero ids, so a caller that
// ignores ok cannot continue a half-decoded trace.
func FuzzParseTraceparent(f *testing.F) {
	const valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	f.Add(valid)
	f.Add(strings.ToUpper(valid))
	f.Add(valid[:len(valid)-1])
	f.Add(valid + "-extra")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01")
	f.Add(strings.Repeat("0", headerLen))
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		traceID, spanID, ok := ParseTraceparent(s)
		if !ok {
			if !traceID.IsZero() || !spanID.IsZero() {
				t.Fatalf("refused %q but returned ids %s/%s", s, traceID, spanID)
			}
			return
		}
		if len(s) != headerLen || traceID.IsZero() || spanID.IsZero() {
			t.Fatalf("accepted %q (%d bytes) as %s/%s", s, len(s), traceID, spanID)
		}
		again := "00-" + traceID.String() + "-" + spanID.String() + "-01"
		if t2, s2, ok := ParseTraceparent(again); !ok || t2 != traceID || s2 != spanID {
			t.Fatalf("%q parsed to %s/%s, whose own rendering %q parses to %s/%s (ok %v)", s, traceID, spanID, again, t2, s2, ok)
		}
	})
}
