package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/ml"
	"repro/internal/rng"
)

// serveWorkload drives the read path: clients → gateway tier → replicas
// → store, closed loop, one connection per client. serve-batch and
// serve-mixed differ only in the requests they send and in what happens
// between rounds.
type serveWorkload struct {
	o     options
	tr    *tracer
	fleet *fleet

	clients []*client
	// plan[c] is the fixed request sequence client c sends every round,
	// so every round is the same work.
	plan [][]*request
	// rows[i] are the decoded rows of batch body i (serve-batch only),
	// for the ml.PredictBatch comparison.
	rows map[*request][][]float64
	// publishBetween republishes the model between rounds (serve-mixed).
	publishBetween bool

	publishes []float64 // ms per between-round Publisher.Publish (publish + push to both replicas)
	compared  int       // sampled responses compared with the primary
}

func newServeWorkload(o options, tr *tracer) *serveWorkload {
	return &serveWorkload{o: o, tr: tr, publishBetween: o.workload == "serve-mixed"}
}

func (w *serveWorkload) setup() error {
	var err error
	if w.fleet, err = newFleet(w.o.sz, w.o.seed, w.tr); err != nil {
		return err
	}
	for c := 0; c < w.o.sz.clients; c++ {
		w.clients = append(w.clients, newClient(c, w.fleet.gwURLs[c]))
	}
	r := rng.New(rng.MixSeed(w.o.seed, 0x5E))
	ex := w.fleet.dataset.Examples
	pick := func() []float64 { return ex[r.IntN(len(ex))].Features }

	if w.o.workload == "serve-batch" {
		w.rows = make(map[*request][][]float64)
		bodies := make([]*request, w.o.sz.batchBodies)
		for i := range bodies {
			rows := make([][]float64, w.o.sz.batchRows)
			for j := range rows {
				rows[j] = pick()
			}
			bodies[i] = &request{method: http.MethodPost, path: "/predict/batch?model=" + modelName, body: batchBody(rows)}
			w.rows[bodies[i]] = rows
		}
		per := w.o.sz.batchReqs / w.o.sz.clients
		for c := 0; c < w.o.sz.clients; c++ {
			seq := make([]*request, per)
			for i := range seq {
				seq[i] = bodies[(c*per+i)%len(bodies)]
			}
			w.plan = append(w.plan, seq)
		}
	} else {
		predicts := make([]*request, w.o.sz.mixedBodies)
		for i := range predicts {
			raw, err := json.Marshal(struct {
				Features []float64 `json:"features"`
			}{pick()})
			if err != nil {
				return err
			}
			predicts[i] = &request{method: http.MethodPost, path: "/predict?model=" + modelName, body: raw}
		}
		prov := &request{method: http.MethodGet, path: "/models/" + modelName + "/provenance"}
		feats := make([]*request, 24)
		for i := range feats {
			feats[i] = &request{method: http.MethodGet, path: fmt.Sprintf("/features?model=%s&key=hour_speed&index=%d", modelName, i)}
		}
		per := w.o.sz.mixedOps / w.o.sz.clients
		for c := 0; c < w.o.sz.clients; c++ {
			seq := make([]*request, per)
			for i := range seq {
				// 50 % predict, 25 % provenance, 25 % single-value feature join.
				switch k := r.IntN(4); k {
				case 0, 1:
					seq[i] = predicts[r.IntN(len(predicts))]
				case 2:
					seq[i] = prov
				default:
					seq[i] = feats[r.IntN(len(feats))]
				}
			}
			w.plan = append(w.plan, seq)
		}
	}
	// Untimed rounds: connections open, model instantiated on both
	// replicas, pools and encode caches filled, heap at its working size.
	for i := 0; i < w.o.sz.warmRounds; i++ {
		if _, err := w.round(); err != nil {
			return err
		}
	}
	w.tr.mark()
	return nil
}

// sample is one response kept for comparison with the primary.
type sample struct {
	rq   *request
	body []byte
}

func (w *serveWorkload) round() (roundStat, error) {
	type clientResult struct {
		lat     []float64
		failed  int
		samples []sample
		err     error // first failure, for the report
	}
	res := make([]clientResult, len(w.clients))
	var wg sync.WaitGroup
	sec := measure(func() {
		for c, cl := range w.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := &res[c]
				out.lat = make([]float64, 0, len(w.plan[c]))
				for i, rq := range w.plan[c] {
					d, err := cl.do(rq, w.tr)
					if err != nil {
						out.failed++
						if out.err == nil {
							out.err = err
						}
						continue
					}
					out.lat = append(out.lat, float64(d)/float64(time.Millisecond))
					if i%w.o.sz.sampleEvery == 0 {
						out.samples = append(out.samples, sample{rq, bytes.Clone(cl.buf.Bytes())})
					}
				}
			}()
		}
		wg.Wait()
	})
	st := roundStat{section: sec}
	for c := range res {
		st.ops += len(w.plan[c])
		st.failed += res[c].failed
		st.lat = append(st.lat, res[c].lat...)
		if res[c].err != nil && st.firstErr == nil {
			st.firstErr = res[c].err
		}
		for _, s := range res[c].samples {
			if err := w.compare(s); err != nil {
				return st, err
			}
		}
	}
	if w.publishBetween {
		start := time.Now()
		if _, err := w.fleet.pub.Publish(w.fleet.bundle); err != nil {
			return st, fmt.Errorf("publishing between rounds: %w", err)
		}
		w.publishes = append(w.publishes, float64(time.Since(start))/float64(time.Millisecond))
	}
	return st, nil
}

// compare checks one sampled response: byte-for-byte against the
// primary's own handler (the canonical-bytes invariant), and for a
// batch, value-for-value against ml.PredictBatch on the same rows.
func (w *serveWorkload) compare(s sample) error {
	code, want := w.fleet.reference(s.rq)
	if code != http.StatusOK || !bytes.Equal(s.body, want) {
		return fmt.Errorf("%s %s: response differs from the primary's (primary HTTP %d, %d vs %d bytes)",
			s.rq.method, s.rq.path, code, len(s.body), len(want))
	}
	w.compared++
	rows, ok := w.rows[s.rq]
	if !ok {
		return nil
	}
	var got struct {
		Predictions []*float64 `json:"predictions"`
	}
	if err := json.Unmarshal(s.body, &got); err != nil {
		return fmt.Errorf("batch response: %w", err)
	}
	direct := make([]float64, len(rows))
	ml.PredictBatch(w.fleet.model, rows, direct)
	if len(got.Predictions) != len(direct) {
		return fmt.Errorf("batch response has %d predictions, sent %d rows", len(got.Predictions), len(direct))
	}
	for i, p := range got.Predictions {
		if p == nil || *p != direct[i] {
			return fmt.Errorf("batch prediction %d differs from ml.PredictBatch", i)
		}
	}
	return nil
}

func (w *serveWorkload) finish() error {
	for _, c := range w.clients {
		c.close()
	}
	if w.fleet == nil {
		return nil
	}
	if err := w.fleet.close(); err != nil {
		return err
	}
	if n := w.fleet.panics.n.Load(); n > 0 {
		return fmt.Errorf("%d handler panics in the gateway/replica servers' error logs", n)
	}
	// Replicas must hold exactly the versions the primary published.
	want := w.fleet.src.VersionCount(modelName)
	for i, rep := range w.fleet.replicas {
		if got := rep.Store().VersionCount(modelName); got != want {
			return fmt.Errorf("replica %d at version %d, primary at %d", i, got, want)
		}
	}
	if w.compared == 0 {
		return fmt.Errorf("no response was compared with the primary")
	}
	return nil
}
