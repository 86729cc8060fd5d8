package core

// Canonical provenance serialization. A release's provenance — which
// pipeline trained, what budget it spent, which stream blocks it read,
// the validator's verdict, and the DP quality estimate — is the audit
// record that reconciles a published model against the stream's privacy
// ledger. When bundles are pushed to serving replicas, every copy must
// carry provably the same record, so a release is identified by a
// digest over a *canonical* byte serialization built from the
// primitives here (store.Bundle.CanonicalBytes lays out the fields),
// and that serialization is also the only one: the bytes the store
// journals and the publisher pushes are the digest's preimage. The form is
// deterministic by construction (maps never decide byte order):
// length-prefixed strings, IEEE-754 bit patterns for floats, and
// fixed-width big-endian integers, in a fixed field order.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/data"
)

// AppendString appends a length-prefixed UTF-8 string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendUint appends a fixed-width big-endian integer.
func AppendUint(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendFloat appends the IEEE-754 bit pattern of f. Bit patterns, not
// decimal renderings: two provenance records agree exactly or not at
// all, with no formatting ambiguity.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendFloats appends a length-prefixed float64 slice.
func AppendFloats(dst []byte, fs []float64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = AppendFloat(dst, f)
	}
	return dst
}

// AppendBlockIDs appends a length-prefixed block-ID list.
func AppendBlockIDs(dst []byte, blocks []data.BlockID) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(blocks)))
	for _, id := range blocks {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

// Cursor decodes the canonical serialization the Append helpers
// produce. It is sticky-error: the first short read or length overflow
// poisons the cursor, subsequent reads return zero values, and Err
// reports what went wrong — callers decode a whole record and check
// once. The write-ahead log's recovery path and the replica's push
// handler are the consumers: WAL payloads and push bodies are canonical
// bytes, so the same encoding that digests a release also replays and
// ships it.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor returns a cursor over canonical bytes.
func NewCursor(b []byte) *Cursor { return &Cursor{buf: b} }

// Err returns the first decode error (nil if all reads were in bounds).
func (c *Cursor) Err() error { return c.err }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.buf) }

func (c *Cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("core: canonical decode: truncated %s (%d bytes left)", what, len(c.buf))
	}
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.err != nil || len(c.buf) < 1 {
		c.fail("byte")
		return 0
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v
}

// Uint reads a fixed-width big-endian integer (AppendUint's inverse).
func (c *Cursor) Uint() uint64 {
	if c.err != nil || len(c.buf) < 8 {
		c.fail("uint64")
		return 0
	}
	v := binary.BigEndian.Uint64(c.buf)
	c.buf = c.buf[8:]
	return v
}

// Float reads an IEEE-754 bit pattern (AppendFloat's inverse).
func (c *Cursor) Float() float64 { return math.Float64frombits(c.Uint()) }

// String reads a length-prefixed string (AppendString's inverse).
func (c *Cursor) String() string {
	n := c.Uint()
	if c.err != nil || uint64(len(c.buf)) < n {
		c.fail("string")
		return ""
	}
	v := string(c.buf[:n])
	c.buf = c.buf[n:]
	return v
}

// Floats reads a length-prefixed float64 slice (AppendFloats' inverse).
// A zero length yields nil, matching how absent slices encode. The
// length is bounded by the remaining bytes *before* any allocation
// (divide, don't multiply — n*8 on an attacker-chosen n overflows), so
// a damaged length field poisons the cursor instead of panicking.
func (c *Cursor) Floats() []float64 {
	n := c.Uint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf))/8 {
		c.fail("float slice")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.Float()
	}
	return out
}

// BlockIDs reads a length-prefixed block-ID list (AppendBlockIDs'
// inverse). A zero length yields nil.
func (c *Cursor) BlockIDs() []data.BlockID {
	n := c.Uint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf))/8 {
		c.fail("block-ID list")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]data.BlockID, n)
	for i := range out {
		out[i] = data.BlockID(c.Uint())
	}
	return out
}
