package ml

import (
	"math"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
)

func TestMLPShapes(t *testing.T) {
	m := NewMLP(Regression, 4, []int{8, 3}, rng.New(1))
	// params: 4*8+8 + 8*3+3 + 3*1+1 = 40+27+4 = 71.
	if got := len(m.Params()); got != 71 {
		t.Errorf("%d parameters, want 71", got)
	}
	out := m.Predict([]float64{1, 2, 3, 4})
	if math.IsNaN(out) || math.IsInf(out, 0) {
		t.Errorf("Predict = %v", out)
	}
}

// TestMLPRejectsWrongWidth feeds a full row and then a short one: the
// short row must panic, not be read with the full row's tail, and a long
// one must panic too.
func TestMLPRejectsWrongWidth(t *testing.T) {
	m := NewMLP(Regression, 4, []int{3}, rng.New(1))
	m.Predict([]float64{1, 2, 3, 4})
	for _, x := range [][]float64{{1, 2}, {1, 2, 3, 4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-wide row on a 4-wide MLP did not panic", len(x))
				}
			}()
			m.Predict(x)
		}()
	}
}

func TestMLPClassificationOutputsProbability(t *testing.T) {
	m := NewMLP(BinaryClassification, 3, []int{5}, rng.New(2))
	for i := 0; i < 100; i++ {
		p := m.Predict([]float64{float64(i), -float64(i), 0.5})
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
	}
}

// TestMLPGradientCheck verifies backprop against finite differences:
// addGrad unclipped into a zeroed sum is the gradient.
func TestMLPGradientCheck(t *testing.T) {
	for _, kind := range []OutputKind{Regression, BinaryClassification} {
		m := NewMLP(kind, 3, []int{4, 3}, rng.New(3))
		x := []float64{0.3, -0.7, 1.1}
		y := 0.8
		loss := func() float64 {
			if kind == Regression {
				d := m.Predict(x) - y
				return d * d / 2
			}
			p := clampProb(m.Predict(x))
			return -(y*math.Log(p) + (1-y)*math.Log(1-p))
		}
		grad := make([]float64, len(m.Params()))
		m.addGrad(grad, x, y, 0)
		params := m.Params()
		const h = 1e-6
		for _, idx := range []int{0, 3, 7, 15, 20, len(params) - 1} {
			orig := params[idx]
			params[idx] = orig + h
			lp := loss()
			params[idx] = orig - h
			lm := loss()
			params[idx] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-grad[idx]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("kind=%v param %d: analytic %v vs numeric %v", kind, idx, grad[idx], numeric)
			}
		}
	}
}

// TestMLPAddGradNaNLabel pins the one place addGrad and the dense
// gradient part: a NaN label makes every live δ NaN, and the dense
// NaN·0 of an input with a_i = 0 is NaN, where addGrad leaves that entry
// untouched. Every other entry is the dense one, clipped or not.
func TestMLPAddGradNaNLabel(t *testing.T) {
	m := NewMLP(Regression, 3, []int{4}, rng.New(3))
	x := []float64{0.3, 0, 1.1}
	for _, clip := range []float64{0, 1} {
		dense := make([]float64, len(m.Params()))
		m.Grad(x, math.NaN(), dense)
		sum := make([]float64, len(dense))
		m.addGrad(sum, x, math.NaN(), clip)
		untouched := 0
		for l := 0; l < len(m.sizes)-1; l++ {
			in, out := m.sizes[l], m.sizes[l+1]
			for k := m.offsets[l]; k < m.offsets[l]+in*out+out; k++ {
				j := k - m.offsets[l]
				if j < in*out && m.acts[l][j%in] == 0 && math.IsNaN(dense[k]) {
					if math.Float64bits(sum[k]) != 0 {
						t.Errorf("clip %v: param %d of a zero input = %v, want untouched", clip, k, sum[k])
					}
					untouched++
				} else if sum[k] != dense[k] && !(math.IsNaN(sum[k]) && math.IsNaN(dense[k])) {
					t.Errorf("clip %v: param %d = %v, dense %v", clip, k, sum[k], dense[k])
				}
			}
		}
		if untouched == 0 {
			t.Fatalf("clip %v: no entry has a zero input and a NaN δ", clip)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; a 2-layer MLP must beat 0.9.
	ds := &data.Dataset{}
	r := rng.New(4)
	for i := 0; i < 4000; i++ {
		a, b := float64(r.IntN(2)), float64(r.IntN(2))
		y := 0.0
		if a != b {
			y = 1
		}
		ds.Append(data.Example{Features: []float64{a, b}, Label: y})
	}
	m := NewMLP(BinaryClassification, 2, []int{8}, rng.New(5))
	TrainSGD(m, ds, SGDConfig{LearningRate: 0.5, Momentum: 0.9, Epochs: 30, BatchSize: 32}, rng.New(6))
	if acc := Accuracy(m, ds); acc < 0.95 {
		t.Errorf("XOR accuracy = %v, want >= 0.95", acc)
	}
}

func TestMLPLearnsNonlinearRegression(t *testing.T) {
	// y = x1² is beyond a linear model; the MLP should beat it clearly.
	r := rng.New(7)
	mk := func(n int) *data.Dataset {
		ds := &data.Dataset{}
		for i := 0; i < n; i++ {
			x := r.Float64()*2 - 1
			ds.Append(data.Example{Features: []float64{x}, Label: x * x})
		}
		return ds
	}
	train, test := mk(20000), mk(2000)
	mlp := NewMLP(Regression, 1, []int{16, 8}, rng.New(8))
	TrainSGD(mlp, train, SGDConfig{LearningRate: 0.1, Momentum: 0.9, Epochs: 10, BatchSize: 64}, rng.New(9))
	lin := TrainRidge(train, RidgeConfig{Lambda: 1e-6})
	mseMLP, mseLin := MSE(mlp, test), MSE(lin, test)
	if mseMLP > mseLin/4 {
		t.Errorf("MLP MSE %v not clearly below linear MSE %v", mseMLP, mseLin)
	}
}

func TestMLPDPTrainingRuns(t *testing.T) {
	r := rng.New(10)
	ds := synthLogistic(3000, 3, []float64{2, -1, 1}, 0, r)
	m := NewMLP(BinaryClassification, 3, []int{8}, rng.New(11))
	TrainSGD(m, ds, SGDConfig{
		LearningRate: 0.1, Epochs: 2, BatchSize: 256,
		DP: true, ClipNorm: 1, Budget: privacy.MustBudget(2, 1e-6),
	}, rng.New(12))
	for _, p := range m.Params() {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatal("DP training produced non-finite parameters")
		}
	}
	if acc := Accuracy(m, ds); acc < 0.5 {
		t.Errorf("DP MLP accuracy %v below coin flip", acc)
	}
}

func TestMLPDeterministicInit(t *testing.T) {
	a := NewMLP(Regression, 5, []int{7}, rng.New(42))
	b := NewMLP(Regression, 5, []int{7}, rng.New(42))
	for i := range a.Params() {
		if a.Params()[i] != b.Params()[i] {
			t.Fatal("same-seed MLP init differs")
		}
	}
}

// TestMLPPredictsConcurrently shares one MLP per head between goroutines
// with nothing around it: every Predict and PredictBatch must match the
// serial results bit for bit (and, under -race, touch no buffer another
// call writes).
func TestMLPPredictsConcurrently(t *testing.T) {
	r := rng.New(14)
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = make([]float64, 5)
		for j := range rows[i] {
			rows[i][j] = r.Normal(0, 1)
		}
	}
	for _, kind := range []OutputKind{Regression, BinaryClassification} {
		m := NewMLP(kind, 5, []int{7, 3}, rng.New(13))
		want := make([]float64, len(rows))
		for i, x := range rows {
			want[i] = m.Predict(x)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]float64, len(rows))
				for round := 0; round < 200; round++ {
					m.PredictBatch(rows, out)
					for i, x := range rows {
						single := m.Predict(x)
						if math.Float64bits(single) != math.Float64bits(want[i]) ||
							math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Errorf("kind %d row %d: Predict %v, PredictBatch %v, serial %v", kind, i, single, out[i], want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
