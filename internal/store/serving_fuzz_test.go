package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/taxi"
)

// The /predict/batch wire shapes as encoding/json sees them. Serving no
// longer goes through these (batchjson.go scans and appends by hand);
// they are what clients marshal, and the reference the hand-written
// codec is pinned against below.
type batchRequest struct {
	Rows [][]float64 `json:"rows"`
}

type batchResponse struct {
	Model       string     `json:"model"`
	Version     int        `json:"version"`
	Predictions []*float64 `json:"predictions"`
	Errors      []rowError `json:"errors,omitempty"`
}

// oracleDecodeBatchRows is the decoder /predict/batch shipped with
// until PR 15, kept verbatim as the differential oracle: a json.Decoder
// token stream with one reflective Decode per row.
func oracleDecodeBatchRows(body []byte) ([][]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, errors.New("request body must be a JSON object")
	}
	var rows [][]float64
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return rows, err
		}
		if key, _ := keyTok.(string); key != "rows" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return rows, err
			}
			continue
		}
		tok, err := dec.Token()
		if err != nil {
			return rows, err
		}
		if d, ok := tok.(json.Delim); !ok || d != '[' {
			return rows, errors.New(`"rows" must be an array of feature vectors`)
		}
		for dec.More() {
			if len(rows) >= maxBatchRows {
				return rows, errTooManyRows
			}
			var row []float64
			if err := dec.Decode(&row); err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
		if _, err := dec.Token(); err != nil { // closing ]
			return rows, err
		}
	}
	if _, err := dec.Token(); err != nil { // closing }
		return rows, err
	}
	return rows, nil
}

// batchBodySeeds are the bodies the accepted language is spelled out
// with (each checked against the oracle by TestDecodeBatchRowsMatchesOracle)
// and the fuzz corpus mutation starts from.
var batchBodySeeds = []string{
	// serving_test.go's bodies
	`{"rows":[[1],[2],[3]]}`,
	`{"rows":[[1,2],[1,2,3],[],[10,20],[7]]}`,
	`{"rows":[[1,2],[9]]}`,
	`{"rows":[[1]]}`,
	`{nope`,
	`{"rows":[]}`,
	`{}`,
	`{"rows":[[1],[2],[3,4],[5]]}`,
	`{"rows":[[1,2],[0.5,-0.5]]}`,
	// whitespace, everywhere it may go
	" \t\r\n{ \"rows\" : [ [ 1 , 2 ] , [ 3 ] ] } \n",
	// unknown fields of every shape are skipped
	`{"a":null,"rows":[[1]],"b":{"rows":[[9]],"c":[1,{"d":"e\"\\\/\b\f\n\r\t\u00e9"}]},"t":true,"f":false,"n":-1.5e-3,"s":"x"}`,
	`{"big":1e400,"rows":[[2]]}`,
	`{"x":[],"y":{},"rows":[[3]]}`,
	// the key may be escaped; near misses are other keys
	`{"\u0072\u006F\u0077\u0073":[[4]]}`,
	`{"r\u006fws":[[4]],"rows\u0000":[[5]],"Rows":[[6]],"row":[[7]],"rowss":[[8]],"\u0072ow":[[9]]}`,
	// null elements, null and empty rows
	`{"rows":[[null,1,null],null,[]]}`,
	`{"rows":null}`,
	// a repeated key appends
	`{"rows":[[1]],"rows":[[2],[3]]}`,
	// number edge cases
	`{"rows":[[-0,0,-0.0,0e0,0E+5,-0e-5]]}`,
	`{"rows":[[5e-324,2.2250738585072014e-308,4.9406564584124654e-324,1e-400]]}`,
	`{"rows":[[0.1234567890123456789,12345678901234567890,9007199254740993,9007199254740992,9007199254740991]]}`,
	`{"rows":[[1e22,1e23,1e-22,1e-23,123456789012345678e5,0.000000000000000000000001]]}`,
	`{"rows":[[1.7976931348623157e308,1.7976931348623159e308]]}`,
	`{"rows":[[1e400]]}`,
	`{"rows":[[-1e400]]}`,
	`{"rows":[[1e99999999999999999999]]}`,
	`{"rows":[[0.` + strings.Repeat("0", 200) + `1e201]]}`,
	`{"rows":[[1` + strings.Repeat("0", 30) + `e-30]]}`,
	// one-digit literals between separators, and every shape next to them
	// that is not one
	`{"rows":[[0,1,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,1],[1,0,9,8,7,6,5,4,3,2]]}`,
	`{"rows":[[0,1 ]]}`, `{"rows":[[0, 1]]}`, `{"rows":[[0,1,]]}`, `{"rows":[[0,01]]}`,
	`{"rows":[[0,1.5,2e1,3E0,4]]}`, `{"rows":[[0,-1,-0]]}`, `{"rows":[[0,null,1]]}`,
	`{"rows":[[0,1`, `{"rows":[[0,1]`,
	`{"rows":[[` + strings.Repeat("0,", 5000) + `0]]}`,
	// number syntax errors
	`{"rows":[[01]]}`, `{"rows":[[1.]]}`, `{"rows":[[.5]]}`, `{"rows":[[+1]]}`, `{"rows":[[1e]]}`,
	`{"rows":[[1e+]]}`, `{"rows":[[-]]}`, `{"rows":[[0x10]]}`, `{"rows":[[1_0]]}`, `{"rows":[[NaN]]}`,
	`{"rows":[[Infinity]]}`, `{"rows":[[1.5.2]]}`, `{"rows":[[--1]]}`, `{"rows":[[1e5e5]]}`,
	// wrong element and row types
	`{"rows":[["1"]]}`, `{"rows":[[true]]}`, `{"rows":[[[1]]]}`, `{"rows":[[{}]]}`,
	`{"rows":[1]}`, `{"rows":["x"]}`, `{"rows":[{}]}`, `{"rows":[true]}`, `{"rows":{}}`, `{"rows":"x"}`,
	// structure errors
	``, ` `, `[]`, `1`, `null`, `"rows"`, `{`, `{"rows"`, `{"rows":`, `{"rows":[`, `{"rows":[[`,
	`{"rows":[[1`, `{"rows":[[1]`, `{"rows":[[1]]`, `{"rows":[[1],]}`, `{"rows":[,[1]]}`, `{"rows":[[1,]]}`,
	`{"rows":[[,1]]}`, `{"rows":[[1] [2]]}`, `{"rows":[[1 2]]}`, `{"rows":[[1]],}`, `{,"rows":[[1]]}`,
	`{"rows" [[1]]}`, `{"rows":[[1]]"a":1}`, `{rows:[[1]]}`, `{"rows":[[1]}}`, `{"rows":[[1]]]`,
	`{"rows":[[nul]]}`, `{"rows":[[nulll]]}`, `{"rows":[nul]}`, `{"a":tru,"rows":[[1]]}`, `{"a":truex}`,
	`{"a":"\x01"}`, `{"a":"\q"}`, `{"a":"\u12g4"}`, `{"a":"unterminated`, `{"a":[1,]}`, `{"a":{"b":1,}}`,
	`{"a":{"b"}}`, `{"a":{1:2}}`, `{"a":[1}}`, `{"a":{"b":1]}`, `{"a":1 2}`, `{"a"}`, `{1:2}`,
	// bytes after the closing brace are never read
	`{"rows":[[1]]}garbage`, `{"rows":[[1]]}{"rows":[[2]]}`, `{}]`,
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkAgainstOracle holds the scanner to the oracle on one body: both
// accept or both reject, and accepted rows are bit-identical.
func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleDecodeBatchRows(body)
	got, gotErr := decodeBatchRows(body, nil)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q:\n scanner err: %v\n oracle  err: %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !sameRows(got, want) {
		t.Fatalf("body %q:\n scanner rows: %v\n oracle  rows: %v", body, got, want)
	}
}

func TestDecodeBatchRowsMatchesOracle(t *testing.T) {
	for _, body := range batchBodySeeds {
		checkAgainstOracle(t, []byte(body))
	}

	// Nesting in a skipped field is bounded where encoding/json bounds it.
	for _, depth := range []int{10000, 10001} {
		body := `{"deep":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"rows":[[1]]}`
		checkAgainstOracle(t, []byte(body))
		if _, err := decodeBatchRows([]byte(body), nil); (err == nil) != (depth == 10000) {
			t.Errorf("depth %d: err %v", depth, err)
		}
	}

	// The row limit: exactly maxBatchRows rows pass, one more aborts
	// early — the rest of the body (here: garbage) is never scanned.
	full := `{"rows":[` + strings.Repeat("[1],", maxBatchRows-1) + `[1]`
	checkAgainstOracle(t, []byte(full+`]}`))
	checkAgainstOracle(t, []byte(full+`],"rows":[]}`))
	for _, over := range []string{full + `,[1]]}`, full + `],"rows":[[1]]}`, full + `,[1],!!!not json`} {
		checkAgainstOracle(t, []byte(over))
		if _, err := decodeBatchRows([]byte(over), nil); !errors.Is(err, errTooManyRows) {
			t.Errorf("over the row limit: err %v, want errTooManyRows", err)
		}
	}

	// Randomly generated well-formed batches in every float format.
	r := rng.New(7)
	for n := 0; n < 200; n++ {
		var b strings.Builder
		b.WriteString(`{"rows":[`)
		for i, rows := 0, r.IntN(5); i <= rows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for j, cols := 0, r.IntN(6); j < cols; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				f := math.Float64frombits(r.Uint64())
				if math.IsNaN(f) || math.IsInf(f, 0) {
					f = float64(r.IntN(1000))
				}
				b.WriteString(strconv.FormatFloat(f, "eEfg"[r.IntN(4)], r.IntN(25)-1, 64))
			}
			b.WriteByte(']')
		}
		b.WriteString(`]}`)
		checkAgainstOracle(t, []byte(b.String()))
	}
}

// TestDecodeBatchRowsReusesScratchCleanly: rows land in the scratch's
// backing arrays, and nothing of a previous request shows through — a
// null element is 0 whatever the pooled buffer held. (encoding/json
// left a null element "unchanged", which in a reused buffer meant the
// previous request's feature.)
func TestDecodeBatchRowsReusesScratchCleanly(t *testing.T) {
	scratch, err := decodeBatchRows([]byte(`{"rows":[[11,12,13],[21,22,23],[31]]}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := &scratch[0][:1][0]
	rows, err := decodeBatchRows([]byte(`{"rows":[[null,null],null]}`), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{0, 0}, {}}; !sameRows(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	if &rows[0][0] != first {
		t.Error("row 0 was reallocated instead of reusing the scratch buffer")
	}
	// A failed decode still hands back the buffers it grew.
	rows, err = decodeBatchRows([]byte(`{"rows":[[1,2,3,4,5,6,7,8,9],[oops`), rows)
	if err == nil || len(rows) < 1 || cap(rows[0]) < 9 {
		t.Errorf("err %v, rows %v: want an error and the grown first row", err, rows)
	}
}

// jsonNumber is the JSON number grammar, as an oracle independent of
// both the scanner and encoding/json.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber holds batchScanner.number to strconv.ParseFloat on tok:
// it consumes the whole token exactly when tok is a JSON number in
// float64 range, and then returns ParseFloat's bits.
func checkNumber(t *testing.T, tok string) {
	t.Helper()
	s := batchScanner{b: []byte(tok)}
	got, err := s.number()
	whole := err == nil && s.pos == len(tok)
	want, perr := strconv.ParseFloat(tok, 64)
	if valid := jsonNumber.MatchString(tok) && perr == nil; whole != valid {
		t.Fatalf("number(%q): err %v, consumed %d of %d bytes; JSON number in range: %v (ParseFloat err %v)",
			tok, err, s.pos, len(tok), valid, perr)
	}
	if whole && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("number(%q) = %v (%#x), ParseFloat = %v (%#x)",
			tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

var numberSeeds = []string{
	"0", "-0", "1", "-1", "0.0", "-0.0", "0e0", "1e0", "1E5", "1e+5", "1e-5", "123456789.125",
	"9007199254740991", "9007199254740992", "9007199254740993", "1e22", "1e23", "1e-22", "1e-23",
	"9007199254740991e22", "9007199254740991e-22", "0.1", "0.30000000000000004", "3.141592653589793",
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e308", "1e309", "1e400", "-1e400", "1e-400",
	"0.1234567890123456789", "1234567890123456789", "12345678901234567890", "18446744073709551616",
	"0.000000000000000000001", "100000000000000000000000", "1e99999999999999999999", "1e-99999999999999999999",
	"0." + strings.Repeat("0", 120) + "1e121", "1" + strings.Repeat("0", 120) + "e-120",
	"", "-", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1.e1", "1e1.5", "0x1p3", "1_000", "Inf", "NaN", "1 ", " 1",
}

func TestBatchNumberMatchesParseFloat(t *testing.T) {
	for _, tok := range numberSeeds {
		checkNumber(t, tok)
	}
	r := rng.New(3)
	for n := 0; n < 20000; n++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkNumber(t, strconv.FormatFloat(f, "eEfg"[r.IntN(4)], r.IntN(25)-1, 64))
		// Short decimals are what the fast path is for.
		checkNumber(t, fmt.Sprintf("%d.%de%d", r.IntN(1000), r.IntN(100000), r.IntN(60)-30))
	}
}

// FuzzDecodeBatchRows: on arbitrary bytes the scanner never panics,
// accepts exactly what the encoding/json decoder it replaced accepts,
// and returns bit-identical rows.
func FuzzDecodeBatchRows(f *testing.F) {
	for _, body := range batchBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// FuzzBatchNumber: the number scanner agrees with strconv.ParseFloat,
// bit for bit, on every token of the JSON number grammar, and consumes
// no token outside it.
func FuzzBatchNumber(f *testing.F) {
	for _, tok := range numberSeeds {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		checkNumber(t, tok)
	})
}

// TestBatchResponseGolden pins the append encoder to encoding/json:
// what it writes is what json.Encoder wrote for batchResponse, byte for
// byte — replicas and the primary stay identical, and so do clients'
// cached expectations.
func TestBatchResponseGolden(t *testing.T) {
	p := func(f float64) *float64 { return &f }
	for _, tc := range []struct {
		name string
		resp batchResponse
	}{
		{"all valid", batchResponse{Model: "m", Version: 1, Predictions: []*float64{p(3), p(5), p(7.25)}}},
		{"mixed null and errors", batchResponse{Model: "sum2", Version: 12,
			Predictions: []*float64{p(3), nil, nil, p(30), nil},
			Errors: []rowError{
				{1, `model "sum2" expects 2 features, got 3`},
				{2, `model "sum2" expects 2 features, got 0`},
				{4, `model "sum2" expects 2 features, got 1`}}}},
		{"all rows bad", batchResponse{Model: "m", Version: 2, Predictions: []*float64{nil},
			Errors: []rowError{{0, "bad"}}}},
		{"hostile model name", batchResponse{Model: "<&>\" \\\b\f\n\r\t\x00\x1f\x7f é\u2028\u2029\xff\xc0\xaf😀", Version: 1 << 40,
			Predictions: []*float64{p(1)}, Errors: nil}},
		{"float formats", batchResponse{Model: "f", Version: 0, Predictions: []*float64{
			p(1e-7), p(1e-6), p(9.99e-7), p(1e21), p(9.99e20), p(math.Copysign(0, -1)), p(0), p(123456789.125),
			p(-1e-7), p(-1e21), p(1e-10), p(1.5e-9), p(1e100), p(1.5e300), p(5e-324), p(math.MaxFloat64),
			p(0.1), p(1.0 / 3), p(-2.5), p(100), p(1e20)}}},
	} {
		want, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')

		var positions []int
		var out []float64
		for i, pred := range tc.resp.Predictions {
			if pred != nil {
				positions = append(positions, i)
				out = append(out, *pred)
			}
		}
		got, err := appendBatchResponse(nil, tc.resp.Model, tc.resp.Version, len(tc.resp.Predictions), positions, out, tc.resp.Errors)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, want)
		}
	}

	// Floats against encoding/json over a sweep.
	r := rng.New(5)
	for n := 0; n < 5000; n++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, _ := json.Marshal(f)
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestPredictNonFiniteIsRequestError: JSON has no spelling for NaN or
// ±Inf, and finite weights on finite features can still predict one. It
// is the request's fault, not the server's: /predict answers 400 with a
// JSON error (not a 200 whose body the encoder refused), and in a batch
// only that row fails — positionally, in row order among the other row
// errors, byte for byte what json.Encoder writes for the reply.
func TestPredictNonFiniteIsRequestError(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1e308, -1e308}})
	s.Publish(Bundle{Name: "m", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	var single map[string]any
	if code := postJSON(t, srv.URL+"/predict?model=m", `{"features":[1e308,0]}`, &single); code != http.StatusBadRequest || single["error"] == nil {
		t.Errorf("/predict of +Inf: code %d, body %v; want 400 with an error", code, single)
	}

	p := func(f float64) *float64 { return &f }
	want, err := json.Marshal(batchResponse{Model: "m", Version: 1,
		Predictions: []*float64{p(0), nil, nil, nil, p(0.5 * 1e308)},
		Errors: []rowError{
			{1, nonFinite(math.NaN())}, // Inf − Inf
			{2, `model "m" expects 2 features, got 1`},
			{3, nonFinite(math.Inf(1))}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict/batch?model=m", "application/json",
		strings.NewReader(`{"rows":[[1,1],[1e308,1e308],[2],[1e308,0],[0.5,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, append(want, '\n')) {
		t.Errorf("batch with non-finite rows: HTTP %d\n got  %s\n want %s", resp.StatusCode, got, want)
	}
}

// TestBatchScratchRelease: a scratch within the bound goes back to the
// pool; one that a maximal request has grown — by rows, by body or by
// response — is dropped, so batchPool never pins such buffers per P.
func TestBatchScratchRelease(t *testing.T) {
	typical := &batchScratch{body: *bytes.NewBuffer(make([]byte, 0, 64<<10)), enc: make([]byte, 0, 8<<10)}
	for i := 0; i < 256; i++ {
		typical.rows = append(typical.rows, make([]float64, 48))
	}
	typical.valid = make([][]float64, 256)
	typical.positions = make([]int, 256)
	typical.out = make([]float64, 256)
	if !typical.release() {
		t.Error("a 256-row taxi-width scratch was dropped; the warm path depends on pooling it")
	}

	wide := &batchScratch{rows: [][]float64{make([]float64, 0, maxPooledScratchBytes/8+1)}}
	many := &batchScratch{}
	for i := 0; i < maxBatchRows; i++ {
		many.rows = append(many.rows, make([]float64, 0, 64))
	}
	for name, sc := range map[string]*batchScratch{
		"one huge row":      wide,
		"maxBatchRows rows": many,
		"oversize body":     {body: *bytes.NewBuffer(make([]byte, 0, maxPooledScratchBytes+1))},
		"oversize response": {enc: make([]byte, 0, maxPooledScratchBytes+1)},
	} {
		if sc.release() {
			t.Errorf("%s: scratch went back to the pool", name)
		}
	}
}

// TestPredictPooledRequestStartsEmpty: /predict decodes into a pooled
// request, and one reused after a full row answers every body as a
// fresh one would — a body without "features" is still a 400, and a
// null element still reads as zero, not as the last row's value.
func TestPredictPooledRequestStartsEmpty(t *testing.T) {
	s := New()
	weights := make([]float64, taxi.FeatureDim)
	full := make([]string, taxi.FeatureDim)
	nulls := make([]string, taxi.FeatureDim)
	for i := range weights {
		weights[i] = float64(i + 1)
		full[i] = "1"
		nulls[i] = "null"
	}
	spec, err := Serialize(&ml.LinearModel{Weights: weights, Bias: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(Bundle{Name: "m", Model: spec})
	h := NewServer(s).Handler()
	row := "[" + strings.Join(full, ",") + "]"
	const sum = 0.5 + 48*49/2 // bias + every weight
	for _, c := range []struct {
		body string
		code int
		want float64 // the prediction, on a 200
	}{
		{`{"features":` + row + `}`, http.StatusOK, sum},
		{`{}`, http.StatusBadRequest, 0},
		{`{"features":null}`, http.StatusBadRequest, 0},
		{`{"other":` + row + `}`, http.StatusBadRequest, 0},
		{`{"features":[` + strings.Join(nulls, ",") + `]}`, http.StatusOK, 0.5},
		{`{"FEATURES":` + row + `}`, http.StatusOK, sum},
		{`{"features":[1],"features":` + row + `}`, http.StatusOK, sum},
		{`{"features":` + row + `,"features":[1]}`, http.StatusBadRequest, 0},
	} {
		for range 3 { // after a full row, and after itself
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/predict?model=m",
				strings.NewReader(`{"features":`+row+`}`)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict?model=m", strings.NewReader(c.body)))
			if rec.Code != c.code {
				t.Fatalf("%.60s: HTTP %d %s, want %d", c.body, rec.Code, rec.Body.String(), c.code)
			}
			if c.code != http.StatusOK {
				continue
			}
			var got predictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if got.Prediction != c.want {
				t.Fatalf("%.60s: predicted %v, want %v", c.body, got.Prediction, c.want)
			}
		}
	}
}

// TestPredictRequestRelease: a request at a plausible width goes back to
// the pool; one a wide body has grown is dropped.
func TestPredictRequestRelease(t *testing.T) {
	if !(&predictRequest{Features: make([]float64, 0, 169)}).release() {
		t.Error("a Criteo-width request was dropped; the warm path depends on pooling it")
	}
	if (&predictRequest{Features: make([]float64, 0, maxPooledFeatures+1)}).release() {
		t.Error("a request past maxPooledFeatures went back to the pool")
	}
}
