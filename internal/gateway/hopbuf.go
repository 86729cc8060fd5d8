// hopbuf.go holds the pooled buffers a proxied request travels in: its
// body, replayed to each attempt, each attempt's outgoing URL, header
// and context, and the upstream response the gateway verifies before
// forwarding. doc.go's "Memory" section states the lifetime rule.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"
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
// each attempt's outgoing URL, header and context, and resp the current
// attempt's upstream response. Its users are the handler and each
// upstream attempt's request body, which the transport may still be
// reading after RoundTrip has returned; the last of them to finish
// returns the set to hopPool.
type hopBuffers struct {
	req, resp bytes.Buffer
	// out has one slot per attempt: a failover never rewrites what the
	// first attempt's transport may still be reading.
	out [maxAttempts]outgoing
	lim io.LimitedReader // what fill reads a body through
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

// outgoing is what one attempt's request points at instead of a URL,
// a header and a context of its own. header is empty whenever the set
// is handed out.
type outgoing struct {
	url    url.URL
	header http.Header
	ctx    attemptContext
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
// to limit+1 bytes, through the set's own LimitedReader, so the caller
// can tell a body over the limit from one at it. buf is grown from
// length first, so a pooled buffer that has seen a body this size reads
// without allocating, and a fresh one allocates once where ReadFrom's
// 512-byte start would re-grow and copy a batch body about ten times; a
// length that lies costs at most the limit.
func (h *hopBuffers) fill(buf *bytes.Buffer, r io.Reader, length, limit int64) error {
	buf.Reset()
	buf.Grow(int(min(max(length, 0), limit)) + bytes.MinRead)
	h.lim = io.LimitedReader{R: r, N: limit + 1}
	_, err := buf.ReadFrom(&h.lim)
	h.lim.R = nil
	return err
}

// attemptContext is one proxied attempt's context: done once
// AttemptTimeout has passed since begin or its parent, the client's, is
// (doc.go, "Memory"). begin sets deadline and done before the request
// exists, so its users read them unlocked; cancelIfDue only closes done.
type attemptContext struct {
	timer      *time.Timer
	settle     func()      // a.cancelIfDue, bound once with the timer
	stopParent func() bool // ends this attempt's watch on its parent
	mu         sync.Mutex
	parent     context.Context // nil between attempts
	deadline   time.Time
	err        error
	done       chan struct{}  // closed when err is set
	funcs      []afterFunc    // AfterFunc registrations, dropped per attempt
	lastID     uint64         // ids never repeat, so a stale stop finds none
	late       sync.WaitGroup // AfterFunc's goroutines, which read err
}

type afterFunc struct {
	id uint64
	f  func()
}

func (a *attemptContext) begin(parent context.Context, timeout time.Duration) {
	a.late.Wait()
	a.mu.Lock()
	if a.done == nil || a.err != nil {
		a.done, a.err = make(chan struct{}), nil
	}
	a.parent, a.deadline = parent, time.Now().Add(timeout)
	a.mu.Unlock()
	if a.timer == nil {
		a.settle = a.cancelIfDue
		a.timer = time.AfterFunc(timeout, a.settle)
	} else {
		a.timer.Reset(timeout)
	}
	a.stopParent = context.AfterFunc(parent, a.settle)
}

// end disarms a once its attempt has returned, dropping what registered
// with it: cancelling would cost the next attempt a Done channel.
func (a *attemptContext) end() {
	a.stopParent()
	a.timer.Stop()
	a.mu.Lock()
	a.parent, a.stopParent = nil, nil
	clear(a.funcs)
	a.funcs = a.funcs[:0]
	a.mu.Unlock()
}

// cancelIfDue cancels the attempt once its parent is done or its deadline
// has passed; no timer fires early, so a callback finding neither is stale.
func (a *attemptContext) cancelIfDue() {
	a.mu.Lock()
	var funcs []afterFunc
	if a.parent != nil && a.err == nil {
		if a.err = a.parent.Err(); a.err == nil && !time.Now().Before(a.deadline) {
			a.err = context.DeadlineExceeded
		}
		if a.err != nil {
			close(a.done)
			funcs, a.funcs = a.funcs, nil
		}
	}
	a.mu.Unlock()
	for _, r := range funcs {
		r.f()
	}
}

// AfterFunc is the method context.AfterFunc's documentation names, with
// which a context derived from a registers. f runs on the cancelling
// goroutine, or on its own if a is done; stop unregisters only f.
func (a *attemptContext) AfterFunc(f func()) (stop func() bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		a.late.Add(1)
		go func() { defer a.late.Done(); f() }()
	}
	if a.err != nil || a.parent == nil {
		return func() bool { return false }
	}
	a.lastID++
	id := a.lastID
	a.funcs = append(a.funcs, afterFunc{id, f})
	return func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		i := slices.IndexFunc(a.funcs, func(r afterFunc) bool { return r.id == id })
		if i >= 0 {
			a.funcs = slices.Delete(a.funcs, i, i+1)
		}
		return i >= 0
	}
}

func (a *attemptContext) Deadline() (time.Time, bool) { return a.deadline, true }
func (a *attemptContext) Done() <-chan struct{}       { return a.done }

func (a *attemptContext) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

func (a *attemptContext) Value(key any) any {
	a.mu.Lock()
	parent := a.parent
	a.mu.Unlock()
	if parent == nil {
		return nil
	}
	return parent.Value(key)
}
