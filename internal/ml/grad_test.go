package ml

import "math"

// The dense per-example gradient as TrainSGD formed it before each model
// added its own: every model wrote all of its parameters' gradient into
// a buffer, clipL2 rescaled the buffer and an add loop summed it. Kept
// here as the reference addGrad is held to (referenceTrainSGD,
// TestMLPGradientCheck, TestClippedContributionBound, the clip check of
// linreg_test.go).

// denseGradModel is a GradModel with the reference gradient.
type denseGradModel interface {
	GradModel
	// Grad writes the gradient of the per-example loss into out
	// (len(out) == len(Params())).
	Grad(features []float64, label float64, out []float64)
}

// Grad implements denseGradModel: ∂logloss/∂w = (p − y)·x, ∂/∂b = (p − y).
func (m *LogisticRegression) Grad(x []float64, y float64, out []float64) {
	p := m.Predict(x)
	diff := p - y
	for i := 0; i < m.dim; i++ {
		out[i] = diff * x[i]
	}
	out[m.dim] = diff
}

// Grad implements denseGradModel: ∂(pred−y)²/∂w = 2(pred−y)·x.
func (m *SGDLinearRegression) Grad(x []float64, y float64, out []float64) {
	diff := 2 * (m.Predict(x) - y)
	for i := 0; i < m.dim; i++ {
		out[i] = diff * x[i]
	}
	out[m.dim] = diff
}

// Grad implements denseGradModel via backpropagation. For both heads the
// output delta is (prediction − label): squared loss (halved) with
// identity output and log loss with sigmoid output share this form.
func (m *MLP) Grad(x []float64, y float64, out []float64) {
	z := m.forward(&m.activations, x)
	pred := z
	if m.kind == BinaryClassification {
		pred = Sigmoid(z)
	}
	layers := len(m.sizes) - 1
	m.errs[layers][0] = pred - y
	// Backpropagate deltas through ReLU layers.
	for l := layers - 1; l >= 1; l-- {
		in, outn := m.sizes[l], m.sizes[l+1]
		w, _ := m.layer(l)
		for i := 0; i < in; i++ {
			sum := 0.0
			for j := 0; j < outn; j++ {
				sum += w[j*in+i] * m.errs[l+1][j]
			}
			if m.zs[l][i] <= 0 {
				sum = 0 // ReLU derivative
			}
			m.errs[l][i] = sum
		}
	}
	// Write gradients: dW[j][i] = delta[j]·act[i], db[j] = delta[j].
	for l := 0; l < layers; l++ {
		in, outn := m.sizes[l], m.sizes[l+1]
		start := m.offsets[l]
		for j := 0; j < outn; j++ {
			d := m.errs[l+1][j]
			base := start + j*in
			for i := 0; i < in; i++ {
				out[base+i] = d * m.acts[l][i]
			}
			out[start+in*outn+j] = d
		}
	}
}

// clipL2 scales vector v in place so its L2 norm is at most bound, and
// returns the original norm. This is the per-example gradient clipping step
// of DP-SGD (Abadi et al. 2016).
func clipL2(v []float64, bound float64) float64 {
	if bound <= 0 {
		panic("ml: clipL2 requires bound > 0")
	}
	sq := 0.0
	for _, x := range v {
		sq += x * x
	}
	norm := math.Sqrt(sq)
	if norm > bound {
		f := bound / norm
		for i := range v {
			v[i] *= f
		}
	}
	return norm
}
