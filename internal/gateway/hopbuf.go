// hopbuf.go holds the pooled buffers a proxied request travels in: its
// body, replayed to each attempt, each attempt's outgoing URL and
// header, and the upstream response the gateway verifies before
// forwarding. doc.go's "Memory" section states the lifetime rule.
package gateway

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
)

// maxPooledHopBytes bounds what one hopBuffers set may carry back into
// hopPool. Under steady traffic the pool keeps sets per P, so without a
// bound one batch body at its route's budget would stay pinned there;
// above the bound the set is dropped and a later request starts from an
// empty one. A 256-row taxi-width batch and its reply hold under a
// tenth of this.
const maxPooledHopBytes = 4 << 20

// maxPooledHeaders bounds the keys an attempt's outgoing header may
// carry back into hopPool: clearing a map keeps the room it grew to, so
// one request with thousands of header lines would otherwise pin that
// room per P.
const maxPooledHeaders = 64

// maxAttempts is how many backends one proxied request tries: the first
// pick and one failover to a different backend.
const maxAttempts = 2

// errHopReleased answers a replay asked for after the last user of the
// request's buffers has gone.
var errHopReleased = errors.New("gateway: request body replayed after its request finished")

// hopBuffers is one proxied request's buffers: req holds its body, out
// each attempt's outgoing URL and header, and resp the current
// attempt's upstream response. Its users are the handler and each
// upstream attempt's request body, which the transport may still be
// reading after RoundTrip has returned; the last of them to finish
// returns the set to hopPool.
type hopBuffers struct {
	req, resp bytes.Buffer
	// out has one slot per attempt: a failover never rewrites what the
	// first attempt's transport may still be reading.
	out [maxAttempts]outgoing
	// spent marks a set one of whose attempts failed without a body:
	// nothing tells when that transport is done reading the request,
	// so the set is never pooled again.
	spent bool
	// state is the set's generation in the high 32 bits, counted up each
	// time the pool hands the set out, and its live references in the
	// low 32. A reference is only taken against the generation it was
	// handed out as, so a reader that outlives its request can never
	// pin, or read, a later request's bytes.
	state atomic.Uint64
}

// outgoing is what one attempt's request points at instead of a URL
// and a header of its own. header is empty whenever the set is handed
// out.
type outgoing struct {
	url    url.URL
	header http.Header
}

var hopPool = sync.Pool{New: func() any { return new(hopBuffers) }}

// getHop takes an empty set from the pool, holding the caller's one
// reference.
func getHop() *hopBuffers {
	h := hopPool.Get().(*hopBuffers)
	h.req.Reset()
	h.resp.Reset()
	gen := h.state.Load()>>32 + 1
	h.state.Store(gen<<32 | 1)
	return h
}

// unref drops one reference. The last one returns the set to hopPool
// unless it is spent or a buffer has grown past maxPooledHopBytes, in
// which case it is left to the collector; it reports whether the set
// went back.
func (h *hopBuffers) unref() bool {
	if uint32(h.state.Add(^uint64(0))) != 0 {
		return false
	}
	if h.spent || h.req.Cap()+h.resp.Cap() > maxPooledHopBytes {
		return false
	}
	// Nothing in the pool keeps a finished request's strings reachable.
	for i := range h.out {
		o := &h.out[i]
		o.url = url.URL{}
		if len(o.header) > maxPooledHeaders {
			o.header = nil
		}
		clear(o.header)
	}
	hopPool.Put(h)
	return true
}

// maxSizedBody is the largest request body attach declares by its
// length. net/http sends a declared length from a reader it does not
// know to be in memory (isKnownInMemoryReader) through a fresh
// min(32 KiB, length) copy buffer per request; a larger body goes
// chunked, as one chunk hopBody.WriteTo writes from the set's buffer.
// A smaller one keeps its length: its buffer is body-sized, and a chunk
// costs more writes (5 against 2 at 13 kB).
const maxSizedBody = 32 << 10

// attach makes the set's request body req's: its ContentLength (-1
// past maxSizedBody), a Body holding its own reference until the
// transport closes it, and a GetBody that replays the same bytes, so
// net/http can resend the body on a fresh connection. An empty body
// stays NewRequest's nil. The caller holds a reference, which keeps the
// generation live.
func (h *hopBuffers) attach(req *http.Request) {
	if h.req.Len() == 0 {
		return
	}
	gen := uint32(h.state.Load() >> 32)
	req.Body, _ = h.body(gen)
	req.ContentLength = int64(h.req.Len())
	if req.ContentLength > maxSizedBody {
		req.ContentLength = -1
	}
	req.GetBody = func() (io.ReadCloser, error) { return h.body(gen) }
}

// ref takes a reference to generation gen of the set, or reports false
// once that generation's last user has gone.
func (h *hopBuffers) ref(gen uint32) bool {
	for {
		s := h.state.Load()
		if uint32(s>>32) != gen || uint32(s) == 0 {
			return false
		}
		if h.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// body returns a reader over the request body that holds a reference
// to generation gen of the set, or errHopReleased once that
// generation's last user has gone.
func (h *hopBuffers) body(gen uint32) (io.ReadCloser, error) {
	if !h.ref(gen) {
		return nil, errHopReleased
	}
	b := &hopBody{set: h, gen: gen, open: true}
	b.r.Reset(h.req.Bytes())
	return b, nil
}

// hopBody is one upstream request body. Read, WriteTo and Close exclude
// each other, so no read runs on bytes Close has handed back.
type hopBody struct {
	set  *hopBuffers
	mu   sync.Mutex
	gen  uint32
	open bool
	r    bytes.Reader
}

func (b *hopBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.r.Read(p)
}

// WriteTo sends the rest of the body in one w.Write from the set's
// buffer, holding a reference of its own for it, not b.mu: the bytes
// stay this request's, and a Close never waits on the upstream.
func (b *hopBody) WriteTo(w io.Writer) (int64, error) {
	b.mu.Lock()
	r := b.r
	b.r.Reset(nil)
	held := b.open && b.set.ref(b.gen)
	b.mu.Unlock()
	if !held {
		return 0, http.ErrBodyReadAfterClose
	}
	defer b.set.unref()
	return r.WriteTo(w)
}

// Close drops the body's reference; the transport may call it more
// than once, and from another goroutine.
func (b *hopBody) Close() error {
	b.mu.Lock()
	wasOpen := b.open
	b.open = false
	b.mu.Unlock()
	if wasOpen {
		b.set.unref()
	}
	return nil
}

// fill reads a body of the declared length (-1: unknown) into buf, up
// to limit+1 bytes, so the caller can tell a body over the limit from
// one at it. buf is grown from length first, so a pooled buffer that
// has seen a body this size reads without allocating, and a fresh one
// allocates once where ReadFrom's 512-byte start would re-grow and copy
// a batch body about ten times; a length that lies costs at most the
// limit.
func fill(buf *bytes.Buffer, r io.Reader, length, limit int64) error {
	buf.Reset()
	buf.Grow(int(min(max(length, 0), limit)) + bytes.MinRead)
	_, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	return err
}
