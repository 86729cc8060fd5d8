package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/validation"
)

const modelName = "taxi-lr"

// panicLog counts "http: panic serving" lines written to an
// http.Server's ErrorLog. net/http turns a handler panic into a dropped
// connection, and its client silently replays idempotent GETs on a
// dropped connection, so without this a crashing handler could hide
// behind a retry the harness never made.
type panicLog struct{ n atomic.Int64 }

func (p *panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("http: panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// listeners owns the loopback HTTP servers a workload starts.
type listeners struct {
	servers []*http.Server
	panics  panicLog
}

// serve starts h on a fresh loopback port with the timeouts sagectl's
// servers ship with, and returns its base URL.
func (l *listeners) serve(h http.Handler) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.New(&l.panics, "", 0),
	}
	l.servers = append(l.servers, srv)
	go func() { _ = srv.Serve(lis) }()
	return "http://" + lis.Addr().String(), nil
}

// shutdown stops every server and waits for its handlers to return.
func (l *listeners) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range l.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	l.servers = nil
	return errors.Join(errs...)
}

// countingTransport counts request-body bytes (the publisher's push
// fan-out) on their way to next.
type countingTransport struct {
	next  http.RoundTripper
	bytes *atomic.Int64
	reqs  *atomic.Int64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/push") {
		c.bytes.Add(req.ContentLength)
		c.reqs.Add(1)
	}
	return c.next.RoundTrip(req)
}

// trainTaxiBundle runs the front half of Fig. 1 — stream → growing
// database → ledger → privacy-adaptive AdaSSP training → SLAed
// validation — and returns the accepted release with the dataset it was
// trained on (request bodies are drawn from it).
func trainTaxiBundle(rides int, seed uint64) (store.Bundle, *data.Dataset, error) {
	gen := taxi.NewGenerator(taxi.Config{}, seed)
	clean, _ := taxi.Clean(gen.Generate(rides, 0, 480))
	speeds := taxi.SpeedByHour(clean, 0, nil)
	ds := taxi.Featurize(clean, speeds)

	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, id := range db.Insert(ds.Examples...) {
		ac.RegisterBlock(id)
	}
	pipe := &pipeline.Pipeline{
		Name:    modelName,
		Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: pipeline.MSEValidator{
			Target: 0.016, B: 1,
			ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
	st := &adaptive.StreamTrainer{
		AC: ac, DB: db, Pipe: pipe,
		Epsilon0: 0.125, EpsilonCap: 1, Delta: 1e-8,
		MinWindow: min(10, db.NumBlocks()),
	}
	res, err := st.Run(rng.New(rng.MixSeed(seed, 3)))
	if err != nil {
		return store.Bundle{}, nil, fmt.Errorf("training the served model: %w", err)
	}
	if res.Decision != validation.Accept {
		return store.Bundle{}, nil, fmt.Errorf("training the served model: decision %v (quality %v)", res.Decision, res.Quality)
	}
	spec, err := store.Serialize(res.Model)
	if err != nil {
		return store.Bundle{}, nil, err
	}
	return store.Bundle{
		Name:     modelName,
		Model:    spec,
		Features: map[string][]float64{"hour_speed": speeds},
		Provenance: store.Provenance{
			Pipeline: pipe.Name,
			Spent:    res.TotalSpent,
			Blocks:   res.Blocks,
			Decision: res.Decision.String(),
			Quality:  res.Quality,
		},
	}, ds, nil
}

// fleet is the serving side of Fig. 1 as deployed: an authoritative
// store, a publisher pushing to two replicas, and the gateway tier in
// front of them, every tier on its own loopback listener.
//
// The gateway tier is one gateway per client connection. A single
// gateway shared by two concurrent clients loses about six requests per
// million to a divide-by-zero in its backend pick (see README, "Known
// product defect"); the harness never retries, so until that is fixed
// the two-client load goes through two gateways over the shared
// replicas, where every tier below is still used concurrently.
type fleet struct {
	listeners
	bundle   store.Bundle
	dataset  *data.Dataset
	model    ml.Model
	src      *store.Store
	primary  http.Handler // the reference every sampled response is compared with
	pub      *replica.Publisher
	replicas []*replica.Server
	gateways []*gateway.Gateway
	gwURLs   []string
	upstream *http.Transport

	pushBytes, pushReqs atomic.Int64
}

func newFleet(sz sizes, seed uint64, tr *tracer) (*fleet, error) {
	f := &fleet{src: store.New()}
	var err error
	if f.bundle, f.dataset, err = trainTaxiBundle(sz.trainRides, seed); err != nil {
		return nil, err
	}
	if f.model, err = f.bundle.Model.Instantiate(); err != nil {
		return nil, err
	}
	f.primary = store.NewServer(f.src).Handler()
	f.upstream = http.DefaultTransport.(*http.Transport).Clone()

	var repURLs []string
	for i := 0; i < 2; i++ {
		rep := replica.NewServer()
		h := rep.Handler()
		if tr != nil {
			h = tracedHandler(tr, "replica.handler", h)
		}
		u, err := f.serve(h)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, rep)
		repURLs = append(repURLs, u)
	}
	f.pub = replica.NewPublisher(f.src, repURLs, replica.WithClient(&http.Client{
		Transport: countingTransport{next: f.upstream, bytes: &f.pushBytes, reqs: &f.pushReqs},
	}))
	if _, err := f.pub.Publish(f.bundle); err != nil {
		return nil, fmt.Errorf("publishing the served model: %w", err)
	}

	for c := 0; c < sz.clients; c++ {
		cfg := gateway.Config{Backends: repURLs, Transport: f.upstream}
		if tr != nil {
			cfg.Transport = tracedTransport{t: tr, name: "gateway.upstream", next: f.upstream}
		}
		g, err := gateway.New(cfg)
		if err != nil {
			return nil, err
		}
		g.Start()
		h := g.Handler()
		if tr != nil {
			h = tracedHandler(tr, "gateway.handler", h)
		}
		u, err := f.serve(h)
		if err != nil {
			return nil, err
		}
		f.gateways = append(f.gateways, g)
		f.gwURLs = append(f.gwURLs, u)
	}
	return f, nil
}

func (f *fleet) close() error {
	for _, g := range f.gateways {
		g.Stop()
	}
	err := f.shutdown()
	f.upstream.CloseIdleConnections()
	return err
}

// request is one pre-built operation a client sends.
type request struct {
	method string
	path   string // with query
	body   []byte
}

// client is one closed-loop caller with exactly one connection.
type client struct {
	id   int
	base string
	http *http.Client
	buf  bytes.Buffer
	seq  uint64
}

func newClient(id int, base string) *client {
	return &client{id: id, base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole reply into the client's
// buffer (valid until the next call). Any transport error or non-200 is
// a failed op; the harness does not retry.
func (c *client) do(rq *request, tr *tracer) (time.Duration, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, c.base+rq.path, body)
	if err != nil {
		return 0, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var s span
	if tr != nil {
		c.seq++
		s = span{ID: tr.newID(), Req: uint64(c.id)<<40 | c.seq, Name: "client.request"}
		req.Header.Set(hdrReq, fmt.Sprint(s.Req))
		req.Header.Set(hdrSpan, fmt.Sprint(s.ID))
		s.Start = tr.now()
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if tr != nil {
		s.End = tr.now()
		tr.record(s)
	}
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: HTTP %d: %s", rq.method, rq.path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return lat, nil
}

// reference answers rq from the primary store's own handler, in
// process: the bytes every replica must reproduce.
func (f *fleet) reference(rq *request) (int, []byte) {
	var body io.Reader = http.NoBody
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	rec := httptest.NewRecorder()
	f.primary.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, body))
	return rec.Code, rec.Body.Bytes()
}

// batchBody encodes rows as a /predict/batch request.
func batchBody(rows [][]float64) []byte {
	raw, err := json.Marshal(struct {
		Rows [][]float64 `json:"rows"`
	}{rows})
	if err != nil {
		panic(err) // finite floats cannot fail to encode
	}
	return raw
}
