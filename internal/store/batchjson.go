package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The /predict/batch wire codec. Requests and responses are the JSON
// encoding/json would read and write for
//
//	{"rows": [[…], …]}
//	{"model": …, "version": …, "predictions": [… | null], "errors": [{"row": …, "error": …}]}
//
// but a 256-row batch is twelve thousand numbers, and reflection per
// number was four fifths of the serving CPU. So the rows grammar and the
// reply are written out by hand; serving_fuzz_test.go keeps the
// encoding/json implementations as differential oracles. The numbers
// served are mostly one-hot indicators (taxi rows: 46 of 48 columns), so
// a bare digit between commas is one byte-pattern test in batchScanner.row
// ahead of the general number scan, which takes every other literal.

// errTooManyRows aborts the decode as soon as the row limit is crossed,
// without scanning the rest of the body.
var errTooManyRows = fmt.Errorf("batch exceeds the %d-row limit", maxBatchRows)

// batchScanner is a cursor over one buffered request body.
type batchScanner struct {
	b   []byte
	pos int
}

// decodeBatchRows scans one /predict/batch body in a single pass,
// appending numbers straight into the scratch row buffers of previous
// requests, and returns the rows (also on error, so grown buffers are
// kept).
//
// Accepted language — what encoding/json's token stream accepted before
// it, pinned by FuzzDecodeBatchRows: a JSON object, surrounded and
// separated by JSON whitespace, whose "rows" members (a repeated key
// appends) are arrays of rows. A row is an array of numbers, or null (an
// empty row, which the handler reports positionally); a null element is
// 0. Numbers follow the JSON grammar and decode to the bits
// strconv.ParseFloat gives, so a literal beyond float64 range is an
// error. Anything not spelled `"rows"` — another key, that key with
// escapes, another member's value of any shape — is general JSON, which
// no client in this tree sends: encoding/json validates and measures it,
// so there is still one implementation of that grammar. Bytes after the
// closing brace are not looked at.
//
// Memory: httpkit caps body at the /predict/batch row's budget (API);
// the scan itself holds at most maxBatchRows rows — it stops at the
// first row past the limit — whose floats number under half the body's
// bytes.
func decodeBatchRows(body []byte, scratch [][]float64) ([][]float64, error) {
	s := batchScanner{b: body}
	rows := scratch[:0]
	if s.space() != '{' {
		return rows, s.syntax("request body must be a JSON object")
	}
	s.pos++
	for first := true; ; first = false {
		more, err := s.more('}', first)
		if !more {
			return rows, err
		}
		isRows := bytes.HasPrefix(s.b[s.pos:], []byte(`"rows"`))
		if isRows {
			s.pos += len(`"rows"`)
		} else {
			if s.space() != '"' {
				return rows, s.syntax("expected a string key")
			}
			var key string
			if err := s.std(&key); err != nil {
				return rows, err
			}
			isRows = key == "rows"
		}
		if s.space() != ':' {
			return rows, s.syntax("expected ':' after object key")
		}
		s.pos++
		if isRows {
			rows, err = s.rows(rows, scratch)
		} else {
			var skip json.RawMessage // unknown fields: forward compatibility
			err = s.std(&skip)
		}
		if err != nil {
			return rows, err
		}
	}
}

// std decodes the JSON value at the cursor into v with encoding/json and
// moves the cursor past it.
func (s *batchScanner) std(v any) error {
	dec := json.NewDecoder(bytes.NewReader(s.b[s.pos:]))
	err := dec.Decode(v)
	s.pos += int(dec.InputOffset())
	return err
}

// space skips JSON whitespace and returns the byte at the cursor, 0 at
// the end of the body (NUL is valid nowhere outside a string, so callers
// need no separate end check).
func (s *batchScanner) space() byte {
	for ; s.pos < len(s.b); s.pos++ {
		if c := s.b[s.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

func (s *batchScanner) syntax(what string) error {
	if s.pos >= len(s.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("%s (offset %d)", what, s.pos)
}

// more steps to the next element of the array or object that end
// closes: it consumes the ',' every element but the first must follow
// and reports true, or consumes end and reports false.
func (s *batchScanner) more(end byte, first bool) (bool, error) {
	switch c := s.space(); {
	case c == end:
		s.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.pos++
		s.space()
		return true, nil
	}
	return false, s.syntax("expected ',' or '" + string(end) + "'")
}

// rows scans one "rows" value, appending to rows and reusing scratch's
// row buffers by position.
func (s *batchScanner) rows(rows, scratch [][]float64) ([][]float64, error) {
	if s.space() != '[' {
		return rows, s.syntax(`"rows" must be an array of feature vectors`)
	}
	s.pos++
	for first := true; ; first = false {
		more, err := s.more(']', first)
		if !more {
			return rows, err
		}
		if len(rows) >= maxBatchRows {
			return rows, errTooManyRows
		}
		var row []float64
		if len(rows) < len(scratch) {
			row = scratch[len(rows)][:0] // reuse the pooled backing array
		}
		row, err = s.row(row)
		rows = append(rows, row)
		if err != nil {
			return rows, err
		}
	}
}

// row scans one feature vector into row.
func (s *batchScanner) row(row []float64) ([]float64, error) {
	switch s.space() {
	case 'n':
		return row, s.null()
	case '[':
		s.pos++
	default:
		return row, s.syntax("each row must be an array of numbers")
	}
	for first := true; ; first = false {
		// One-hot features: a one-digit integer between separators, ",d,"
		// or ",d]", is float64(d) — ParseFloat's bits — and the cursor
		// moves to its closing separator. Any other shape takes the
		// general path below.
		if b, p := s.b, s.pos; !first && p+2 < len(b) && b[p] == ',' && b[p+1]-'0' <= 9 && (b[p+2] == ',' || b[p+2] == ']') {
			row, s.pos = append(row, float64(b[p+1]-'0')), p+2
			continue
		}
		more, err := s.more(']', first)
		if !more {
			return row, err
		}
		var v float64
		if s.space() == 'n' {
			err = s.null()
		} else {
			v, err = s.number()
		}
		if err != nil {
			return row, err
		}
		row = append(row, v)
	}
}

func (s *batchScanner) null() error {
	if !bytes.HasPrefix(s.b[s.pos:], []byte("null")) {
		return s.syntax("invalid literal, expected null")
	}
	s.pos += len("null")
	return nil
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number scans one JSON number at the cursor. When all its digits make a
// mantissa below 2⁵³ and the decimal exponent is within ±22, mantissa
// and power of ten are both exact float64s and one IEEE multiply or
// divide rounds correctly (Clinger's fast path); every other token goes
// to strconv.ParseFloat. Either way the result is ParseFloat's.
func (s *batchScanner) number() (float64, error) {
	b, start := s.b, s.pos
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // every digit so far, while exact
	exact := true
	digits := func() int {
		from := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if mant < 1<<53 {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exact = false // past the fast path whatever follows
			}
		}
		return i - from
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		s.pos = i
		return 0, s.syntax("expected a number")
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		if exp10 = -digits(); exp10 == 0 {
			s.pos = i
			return 0, s.syntax("expected a digit after the decimal point")
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		e, from := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1e8 {
				e = e*10 + int(b[i]-'0')
			} else {
				exact = false // saturated: only ParseFloat knows the value
			}
		}
		if i == from {
			s.pos = i
			return 0, s.syntax("expected a digit in the exponent")
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	s.pos = i
	if exact && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= pow10[-exp10]
		} else {
			f *= pow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil { // well-formed, so out of range
		return 0, fmt.Errorf("number %s does not fit a float64 (offset %d)", b[start:i], start)
	}
	return f, nil
}

// appendBatchResponse appends the /predict/batch reply to dst, byte for
// byte what json.Encoder writes for it (ES6-style floats, a trailing
// newline). out[j] is the prediction for request row positions[j]
// (ascending); rows at no position are null and have their entry in
// errs, which is omitted when empty. A non-finite prediction is an
// error, as it is for encoding/json.
func appendBatchResponse(dst []byte, model string, version, n int, positions []int, out []float64, errs []rowError) ([]byte, error) {
	dst = append(dst, `{"model":`...)
	dst = appendJSON(dst, model)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	dst = append(dst, `,"predictions":[`...)
	for i, j := 0, 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if j == len(positions) || positions[j] != i {
			dst = append(dst, "null"...)
			continue
		}
		f := out[j]
		j++
		if !finite(f) {
			return dst, fmt.Errorf("unsupported prediction for row %d: %v", i, f)
		}
		dst = appendJSONFloat(dst, f)
	}
	dst = append(dst, ']')
	if len(errs) > 0 {
		dst = appendJSON(append(dst, `,"errors":`...), errs)
	}
	return append(dst, '}', '\n'), nil
}

// appendJSONFloat formats a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// one-digit exponent not padded to two.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendJSON appends v as encoding/json marshals it, HTML escaping on
// as json.Encoder has it. The reply's strings — the model name, the row
// errors — are its cold part and go through here rather than through a
// second implementation of the escaping rules.
func appendJSON(dst []byte, v any) []byte {
	raw, _ := json.Marshal(v) // a string or []rowError cannot fail to marshal
	return append(dst, raw...)
}
