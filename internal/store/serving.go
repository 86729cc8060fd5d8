package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// maxBatchRows bounds one /predict/batch request so a single client
// cannot pin a handler goroutine (and its response buffer) arbitrarily
// long.
const maxBatchRows = 10_000

// maxPooledScratchBytes bounds what one batchScratch may carry back into
// batchPool. Under steady traffic the pool keeps a scratch per P, so
// without a bound a single maximal request (maxBatchRows rows at taxi
// width, or a body at its route's budget) would pin its buffers there;
// above the bound the scratch is dropped and the next request starts
// from an empty one. A 256-row batch at taxi width holds under a tenth
// of this.
const maxPooledScratchBytes = 4 << 20

// Class is a serving route's admission class at the gateway, by cost:
// under pressure the expensive batch work is shed first and the cheap
// immutable reads last, so an overloaded platform degrades into a
// read-only cache instead of collapsing.
type Class int

const (
	// ClassRead: immutable GETs — cheap, often pre-encoded.
	ClassRead Class = iota
	// ClassPredict: single-row POST /predict — one model evaluation.
	ClassPredict
	// ClassBatch: POST /predict/batch — up to maxBatchRows rows, the
	// most expensive thing the serving tier does.
	ClassBatch
)

// String names the class for status reports and metric labels.
func (c Class) String() string { return [...]string{"read", "predict", "batch"}[c] }

// Route is one row of the serving API: httpkit.Route's pattern and body
// budget, the row's admission class at the gateway, and its handler.
type Route struct {
	Pattern string
	Body    int64
	Class   Class
	serve   func(*Server, http.ResponseWriter, *http.Request)
}

// API declares the serving API once: the daemon and each replica bind
// its rows to their Server (Server.Routes), the gateway binds each to
// its proxy under the row's budget and class, and httpkit caps every
// body at its row's budget. 1 MiB holds a /predict row at any plausible
// width; 32 MiB holds maxBatchRows rows at taxi width and full float
// precision (8.84 MiB) with room to spare. At the gateway's default
// Limits it can buffer at most 128 predicts × 1 MiB + 16 batches × 32
// MiB = 640 MiB of request bodies at once; reads carry none.
var API = []Route{
	{"GET /models", 0, ClassRead, (*Server).handleModels},
	{"GET /models/{name}/provenance", 0, ClassRead, (*Server).handleProvenance},
	{"POST /predict", 1 << 20, ClassPredict, (*Server).handlePredict},
	{"POST /predict/batch", 32 << 20, ClassBatch, (*Server).handlePredictBatch},
	{"GET /features", 0, ClassRead, (*Server).handleFeatures},
}

// Server is the Serving Infrastructure of Fig. 1: it looks releases up
// in the store and answers prediction requests over HTTP. Every stored
// release carries the model it serves, built once as it entered the
// store, so a request predicts with its release's model whichever
// version it names, and the server keeps no model state of its own.
//
// Its endpoints are the rows of API:
//
//	GET  /models                        → JSON list of {name, version, pipeline}
//	GET  /models/{name}/provenance      → audit view: blocks, budget, decision
//	POST /predict?model=<name>          → {"prediction": …} for {"features": […]}
//	POST /predict/batch?model=<name>    → positional predictions for {"rows": [[…], …]}
//	GET  /features?model=<name>&key=<k> → a released aggregate table (&index=<i>
//	                                      for a single-value serving-time join)
//
// Every endpoint taking ?model= also accepts ?version= to pin an older
// release; the default is the latest version. No handler caps a body:
// httpkit does, at its row's budget.
type Server struct {
	store *Store
	enc   encodedCache
	// met carries the optional serving-path instrumentation. The zero
	// value (all-nil handles) is fully functional: every metric method
	// is nil-receiver safe, so an uninstrumented server pays only nil
	// checks. Set once via Instrument before serving starts.
	met serverMetrics
}

// serverMetrics are the serving-path handles, pre-resolved at
// Instrument time so the hot paths never do registry lookups.
type serverMetrics struct {
	encHits    *metrics.Counter
	encMisses  *metrics.Counter
	predictSec *metrics.Histogram
	batchSec   *metrics.Histogram
	batchRows  *metrics.Histogram
}

// Instrument registers the server's serving metrics in reg and
// resolves the hot-path handles. Call once, before the handler starts
// serving; the handles are written without synchronization.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.met = serverMetrics{
		encHits: reg.Counter("sage_store_encode_cache_hits_total",
			"Immutable-read responses served from the encode cache."),
		encMisses: reg.Counter("sage_store_encode_cache_misses_total",
			"Immutable-read responses that had to be built and encoded."),
		predictSec: reg.Histogram("sage_store_predict_seconds",
			"Latency of POST /predict.", metrics.LatencyBuckets()),
		batchSec: reg.Histogram("sage_store_predict_batch_seconds",
			"Latency of POST /predict/batch.", metrics.LatencyBuckets()),
		batchRows: reg.Histogram("sage_store_predict_batch_rows",
			"Rows per /predict/batch request.", metrics.SizeBuckets()),
	}
	reg.GaugeFunc("sage_store_models",
		"Models currently published in the store.",
		func() float64 { return float64(len(s.store.List())) })
	reg.GaugeFunc("sage_store_generation",
		"Store publish generation (bumps on every publish).",
		func() float64 { return float64(s.store.Generation()) })
}

// encodedCache holds pre-encoded JSON response bodies for the immutable
// read endpoints (model list, provenance, whole feature tables). Store
// contents only change on publish, so a response encoded at store
// generation g can be replayed byte-for-byte until the generation
// advances; the first request after a publish flushes the cache
// wholesale. This removes the per-request encode (and its allocations)
// from the hottest read paths — the connection-level fast path replicas
// rely on when every node answers the same provenance audit queries.
type encodedCache struct {
	mu      sync.Mutex
	gen     uint64
	entries map[string][]byte
}

// preEncoded returns the cached response body for key, building and
// encoding it with build() on miss.
func (s *Server) preEncoded(key string, build func() any) ([]byte, error) {
	gen := s.store.Generation()
	s.enc.mu.Lock()
	if s.enc.gen != gen || s.enc.entries == nil {
		s.enc.gen = gen
		s.enc.entries = make(map[string][]byte)
	}
	if raw, ok := s.enc.entries[key]; ok {
		s.enc.mu.Unlock()
		s.met.encHits.Inc()
		return raw, nil
	}
	s.enc.mu.Unlock()
	s.met.encMisses.Inc()

	// Build and encode outside the lock; a concurrent publish is
	// harmless (the entry is only stored while the generation still
	// matches, and the next request flushes it anyway).
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(build()); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	s.enc.mu.Lock()
	if s.enc.gen == gen && s.enc.entries != nil {
		s.enc.entries[key] = raw
	}
	s.enc.mu.Unlock()
	return raw, nil
}

// writePreEncoded serves one immutable endpoint through the encoded
// cache.
func (s *Server) writePreEncoded(w http.ResponseWriter, key string, build func() any) {
	raw, err := s.preEncoded(key, build)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpkit.WriteEncodedJSON(w, http.StatusOK, raw)
}

// NewServer returns a server over the store.
func NewServer(s *Store) *Server {
	return &Server{store: s}
}

// Routes binds API to s, for a tier to mount beside its own rows.
func (s *Server) Routes() []httpkit.Route {
	routes := make([]httpkit.Route, len(API))
	for i, rt := range API {
		routes[i] = httpkit.Route{Pattern: rt.Pattern, Body: rt.Body, Serve: func(w http.ResponseWriter, r *http.Request) { rt.serve(s, w, r) }}
	}
	return routes
}

// Handler serves API alone: no operational surface, no tracing.
func (s *Server) Handler() http.Handler { return httpkit.Mux(nil, s.Routes()) }

// modelInfo is one row of the /models listing.
type modelInfo struct {
	Name     string  `json:"name"`
	Version  int     `json:"version"`
	Pipeline string  `json:"pipeline"`
	Quality  float64 `json:"quality"`
	Epsilon  float64 `json:"epsilon_spent"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	s.writePreEncoded(w, "models", func() any {
		names := s.store.List()
		// Non-nil so an empty store serializes as [], not JSON null.
		out := make([]modelInfo, 0, len(names))
		for _, name := range names {
			if b, ok := s.store.Latest(name); ok {
				out = append(out, modelInfo{
					Name: b.Name, Version: b.Version,
					Pipeline: b.Provenance.Pipeline,
					Quality:  b.Provenance.Quality,
					Epsilon:  b.Provenance.Spent.Epsilon,
				})
			}
		}
		return out
	})
}

// provenanceResponse is the audit view of one released bundle: enough to
// reconcile the release against the stream's privacy ledger.
type provenanceResponse struct {
	Model    string         `json:"model"`
	Version  int            `json:"version"`
	Pipeline string         `json:"pipeline"`
	Epsilon  float64        `json:"epsilon_spent"`
	Delta    float64        `json:"delta_spent"`
	Blocks   []data.BlockID `json:"blocks"`
	Decision string         `json:"decision"`
	Quality  float64        `json:"quality"`
	// TotalEpsilon sums the spend across every published version of this
	// name — the auditor's per-model-line tally (Store.TotalSpent).
	TotalEpsilon float64 `json:"total_epsilon_spent"`
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	bundle, ok := s.resolve(name, queryGet(r.URL.RawQuery, "version"), w)
	if !ok {
		return
	}
	// Cached by (name, version): the bundle itself is immutable, and the
	// one mutable field (TotalEpsilon, which grows as later versions of
	// the name publish) is covered by the generation flush.
	s.writePreEncoded(w, "prov/"+bundle.Name+"/"+strconv.Itoa(bundle.Version), func() any {
		blocks := bundle.Provenance.Blocks
		if blocks == nil {
			blocks = []data.BlockID{}
		}
		return provenanceResponse{
			Model:        bundle.Name,
			Version:      bundle.Version,
			Pipeline:     bundle.Provenance.Pipeline,
			Epsilon:      bundle.Provenance.Spent.Epsilon,
			Delta:        bundle.Provenance.Spent.Delta,
			Blocks:       blocks,
			Decision:     bundle.Provenance.Decision,
			Quality:      bundle.Provenance.Quality,
			TotalEpsilon: s.store.TotalSpent(bundle.Name).Epsilon,
		}
	})
}

// resolve looks up a bundle by name and optional version string,
// writing the HTTP error itself when the lookup fails.
func (s *Server) resolve(name, version string, w http.ResponseWriter) (*Bundle, bool) {
	if name == "" {
		httpError(w, http.StatusBadRequest, "missing model name")
		return nil, false
	}
	if version == "" {
		bundle, ok := s.store.Latest(name)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
			return nil, false
		}
		return bundle, true
	}
	v, err := strconv.Atoi(version)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid version: "+err.Error())
		return nil, false
	}
	bundle, ok := s.store.Get(name, v)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown version %d of model %q", v, name))
		return nil, false
	}
	return bundle, true
}

// predictRequest is the body of POST /predict.
type predictRequest struct {
	Features []float64 `json:"features"`
}

// maxPooledFeatures bounds the Features capacity a predictRequest may
// carry back into predictPool: a 1 MiB body can hold half a million
// one-digit features, and the pool would otherwise keep their 4 MB per
// P. Taxi rows are 48 wide, Criteo rows 169.
const maxPooledFeatures = 1 << 12

// predictPool holds decoded /predict requests whose Features keep their
// capacity, so a warm request decodes its row without growing a slice.
var predictPool = sync.Pool{New: func() any { return new(predictRequest) }}

// release returns req to predictPool unless its Features have grown
// past maxPooledFeatures; it reports which. The handler's last use of
// req must precede it.
func (req *predictRequest) release() bool {
	if cap(req.Features) > maxPooledFeatures {
		return false
	}
	predictPool.Put(req)
	return true
}

// predictResponse is the reply.
type predictResponse struct {
	Model      string  `json:"model"`
	Version    int     `json:"version"`
	Prediction float64 `json:"prediction"`
}

// handlePredict keeps encoding/json for its one row on purpose: struct
// decoding matches "features" case-insensitively and takes the last of
// repeated keys, the batch scanner matches "rows" exactly and appends —
// routing one through the other changes the language /predict accepts.
// The allocation prize is taken inside that language instead: the row
// decodes into a pooled request whose Features keep their capacity, so
// a warm request grows no slice.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	defer s.met.predictSec.ObserveSince(time.Now())
	q := r.URL.RawQuery
	bundle, ok := s.resolve(queryGet(q, "model"), queryGet(q, "version"), w)
	if !ok {
		return
	}
	req := predictPool.Get().(*predictRequest)
	defer req.release()
	// The decoder lengthens a slice within its capacity without zeroing
	// it, and a null element leaves its slot as it finds it: cleared, a
	// reused request decodes what a fresh one would. A body without
	// "features" leaves it empty.
	clear(req.Features[:cap(req.Features)])
	req.Features = req.Features[:0]
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		httpkit.BodyError(w, "invalid JSON body", err)
		return
	}
	// Validate the feature vector against the bundle before Predict: a
	// wrong-length vector would otherwise index out of range and kill
	// the handler goroutine.
	if want := bundle.Model.InputDim(); want > 0 && len(req.Features) != want {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"model %q expects %d features, got %d", bundle.Name, want, len(req.Features)))
		return
	}
	// JSON has no number for ±Inf or NaN, which finite weights give on
	// features that overflow them: a 400, which no gateway breaker counts.
	p := bundle.model.Predict(req.Features)
	if !finite(p) {
		httpError(w, http.StatusBadRequest, nonFinite(p))
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, predictResponse{Model: bundle.Name, Version: bundle.Version, Prediction: p})
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func nonFinite(f float64) string { return fmt.Sprintf("prediction %v is not a JSON number", f) }

// batchScratch is the pooled per-request working set of the batch path:
// the request body, the decoded row buffers, the valid/position split,
// the prediction outputs and the response encode buffer. One warm
// /predict/batch request touches none of these allocations — everything
// is reused from the pool, sized by the largest batch the scratch has
// seen.
type batchScratch struct {
	body      bytes.Buffer
	rows      [][]float64
	valid     [][]float64
	positions []int
	out       []float64
	enc       []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns sc to batchPool unless its buffers have grown past
// maxPooledScratchBytes, in which case it is left to the collector; it
// reports which. The handler's last use of sc must precede it.
func (sc *batchScratch) release() bool {
	// 64 bytes a row covers its headers in rows and valid, its position
	// and its output.
	held := sc.body.Cap() + cap(sc.enc) + 64*cap(sc.rows)
	for _, row := range sc.rows {
		held += 8 * cap(row)
	}
	if held > maxPooledScratchBytes {
		return false
	}
	batchPool.Put(sc)
	return true
}

// grow returns s resized to n entries, reusing its backing array when
// the capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rowError reports one invalid row by its position in the request; the
// reply carries null at that position in predictions and the rowError in
// errors.
type rowError struct {
	Row   int    `json:"row"`
	Error string `json:"error"`
}

// handlePredictBatch runs N rows through the release's model in one
// PredictBatch call: one store lookup (and, for an MLP, one set of
// activation buffers from its pool) is amortized over the whole batch,
// against N for N singleton /predict calls. Malformed rows, and rows whose
// prediction is not finite, do not fail the batch — they are reported
// positionally so the caller can join predictions back to its inputs by
// index.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	defer s.met.batchSec.ObserveSince(time.Now())
	q := r.URL.RawQuery
	bundle, ok := s.resolve(queryGet(q, "model"), queryGet(q, "version"), w)
	if !ok {
		return
	}
	// All per-request buffers come from the pool and go back when the
	// handler returns — by then the response has been fully encoded into
	// sc.enc and written.
	sc := batchPool.Get().(*batchScratch)
	defer sc.release()

	sc.body.Reset()
	if r.ContentLength > 0 {
		// httpkit refused a declared length past the route's budget, so
		// sizing from it holds the body once, not across ReadFrom's
		// doubling copies; MinRead is the room ReadFrom wants to see EOF.
		sc.body.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		httpkit.BodyError(w, "invalid JSON body", err)
		return
	}
	// The three stages under the server span (nil, and free, untraced).
	span := trace.FromContext(r.Context())
	stage := span.StartChild("store.decode")
	rows, err := decodeBatchRows(sc.body.Bytes(), sc.rows)
	stage.End()
	if len(rows) > len(sc.rows) {
		sc.rows = rows // keep grown row buffers for the next request
	}
	if err != nil {
		httpkit.BodyError(w, "invalid JSON body", err)
		return
	}
	if len(rows) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: rows must contain at least one feature vector")
		return
	}
	s.met.batchRows.Observe(float64(len(rows)))

	// Split valid from malformed rows, keeping each valid row's original
	// position so predictions land back where the caller expects them.
	want := bundle.Model.InputDim()
	var rowErrs []rowError
	sc.valid = sc.valid[:0]
	sc.positions = sc.positions[:0]
	for i, row := range rows {
		if want > 0 && len(row) != want {
			rowErrs = append(rowErrs, rowError{
				Row:   i,
				Error: fmt.Sprintf("model %q expects %d features, got %d", bundle.Name, want, len(row)),
			})
			continue
		}
		sc.valid = append(sc.valid, row)
		sc.positions = append(sc.positions, i)
	}
	stage = span.StartChild("store.predict")
	sc.out = grow(sc.out, len(sc.valid))
	bundle.model.PredictBatch(sc.valid, sc.out)
	// A prediction JSON cannot carry is that row's error, not the batch's:
	// a 5xx would count against the replica's breaker at the gateway, and
	// every replica answers the same. Errors are listed in row order.
	kept := 0
	for j, f := range sc.out {
		if !finite(f) {
			rowErrs = append(rowErrs, rowError{Row: sc.positions[j], Error: nonFinite(f)})
			continue
		}
		sc.positions[kept], sc.out[kept] = sc.positions[j], f
		kept++
	}
	slices.SortFunc(rowErrs, func(a, b rowError) int { return a.Row - b.Row })
	stage.End()
	stage = span.StartChild("store.encode")
	sc.enc, err = appendBatchResponse(sc.enc[:0], bundle.Name, bundle.Version, len(rows), sc.positions[:kept], sc.out, rowErrs)
	stage.End()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpkit.WriteEncodedJSON(w, http.StatusOK, sc.enc)
}

// featuresResponse is the reply to GET /features. Exactly one of Keys,
// Values, Value is populated depending on the query shape.
type featuresResponse struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	// Keys lists the bundle's aggregate tables (no key given).
	Keys []string `json:"keys,omitempty"`
	// Key and Values return one whole table, e.g. Listing 1's per-hour
	// speed join.
	Key    string    `json:"key,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// Index and Value return a single entry for serving-time joins that
	// need one group's aggregate (e.g. the current hour's speed).
	Index *int     `json:"index,omitempty"`
	Value *float64 `json:"value,omitempty"`
}

// handleFeatures serves the released aggregate feature tables a bundle
// carries (§2.1: the model ships "bundled with its feature
// transformation operators"). Serving-time code performs Listing 1-style
// joins against these tables: ?key=<table> returns the whole table,
// &index=<i> a single value.
func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	bundle, ok := s.resolve(queryGet(q, "model"), queryGet(q, "version"), w)
	if !ok {
		return
	}
	resp := featuresResponse{Model: bundle.Name, Version: bundle.Version}
	key := queryGet(q, "key")
	index, hasIndex := queryValue(q, "index")
	if key == "" {
		if hasIndex {
			httpError(w, http.StatusBadRequest, "?index= requires ?key=")
			return
		}
		resp.Keys = bundle.FeatureKeys()
		httpkit.WriteJSON(w, http.StatusOK, resp)
		return
	}
	table, ok := bundle.Features[key]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf(
			"model %q has no feature table %q (available: %v)", bundle.Name, key, bundle.FeatureKeys()))
		return
	}
	resp.Key = key
	if !hasIndex {
		// Whole-table responses are the big immutable payloads (Listing
		// 1's 24-entry table is the small case; released aggregates can
		// be arbitrarily wide), so they are served pre-encoded. Bundles
		// are immutable once published (Publish deep-copies), so handing
		// the slice to the JSON encoder is safe.
		s.writePreEncoded(w, "feat/"+bundle.Name+"/"+strconv.Itoa(bundle.Version)+"/"+key, func() any {
			resp.Values = table
			return resp
		})
		return
	}
	idx, err := strconv.Atoi(index)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid index: "+err.Error())
		return
	}
	if idx < 0 || idx >= len(table) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"index %d out of range for table %q of length %d", idx, key, len(table)))
		return
	}
	resp.Index = &idx
	resp.Value = &table[idx]
	httpkit.WriteJSON(w, http.StatusOK, resp)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpkit.WriteJSON(w, code, map[string]string{"error": msg})
}
