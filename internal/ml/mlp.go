package ml

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// OutputKind selects a model's head, the GLM's or the MLP's: identity
// + squared loss for regression (Taxi NN) or sigmoid + log loss for
// classification (Criteo LG and NN).
type OutputKind int

const (
	// Regression uses an identity output and squared loss.
	Regression OutputKind = iota
	// BinaryClassification uses a sigmoid output and log loss.
	BinaryClassification
)

// head maps the model's output z to its prediction: z itself, or the
// positive-class probability σ(z).
func (k OutputKind) head(z float64) float64 {
	if k == BinaryClassification {
		return Sigmoid(z)
	}
	return z
}

// MLP is a fully connected multi-layer perceptron with ReLU hidden
// activations, the paper's "NN" pipelines (Table 1: ReLU, 2 hidden
// layers). Parameters are stored flat, each layer's W then b, and
// addGrad adds a per-example gradient to a sum of that layout without
// forming it. Predict and PredictBatch write only buffers of their own
// call, so one MLP serves concurrent predictions; training
// (addGrad) is single-goroutine and owns the embedded buffers.
type MLP struct {
	kind   OutputKind
	sizes  []int // layer widths: input, hidden..., 1
	params []float64
	// offsets[l] is the start of layer l's W then b in params.
	offsets []int
	// addGrad's forward pass, back-propagated deltas and the indices of
	// each layer's non-zero activations.
	activations
	errs [][]float64
	nz   [][]int32
	// passes hands each Predict or PredictBatch call its own
	// *activations. It holds only floats, so it pins no caller's rows.
	passes sync.Pool
}

// activations is one forward pass's buffers, per layer.
type activations struct {
	acts [][]float64 // outputs
	zs   [][]float64 // pre-activations
}

func newActivations(sizes []int) *activations {
	b := &activations{acts: make([][]float64, len(sizes)), zs: make([][]float64, len(sizes))}
	for i, s := range sizes {
		b.acts[i] = make([]float64, s)
		b.zs[i] = make([]float64, s)
	}
	return b
}

// NewMLP returns an MLP with the given input dimension and hidden layer
// widths, e.g. NewMLP(Regression, 61, []int{64, 32}, r). Weights use He
// initialization; biases start at zero.
func NewMLP(kind OutputKind, inputDim int, hidden []int, r *rng.RNG) *MLP {
	m := MLPFromParams(kind, inputDim, hidden, nil)
	for l := 0; l < len(m.sizes)-1; l++ {
		std := math.Sqrt(2 / float64(m.sizes[l]))
		w, _ := m.layer(l)
		for i := range w {
			w[i] = r.Normal(0, std)
		}
	}
	return m
}

// MLPFromParams returns the MLP of the given widths over params, in
// Params' layout, kept rather than copied and drawing nothing. Nil
// params start at zero; any other length than the widths take panics.
func MLPFromParams(kind OutputKind, inputDim int, hidden []int, params []float64) *MLP {
	if inputDim <= 0 {
		panic("ml: MLP requires inputDim > 0")
	}
	sizes := append([]int{inputDim}, hidden...)
	sizes = append(sizes, 1)
	total := 0
	offsets := make([]int, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		offsets[l] = total
		total += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	if params == nil {
		params = make([]float64, total)
	} else if len(params) != total {
		panic(fmt.Sprintf("ml: MLP of widths %v takes %d params, got %d", sizes, total, len(params)))
	}
	m := &MLP{kind: kind, sizes: sizes, params: params, offsets: offsets}
	m.activations = *newActivations(sizes)
	m.errs = make([][]float64, len(sizes))
	m.nz = make([][]int32, len(sizes))
	for i, s := range sizes {
		m.errs[i] = make([]float64, s)
		m.nz[i] = make([]int32, 0, s)
	}
	m.passes.New = func() any { return newActivations(sizes) }
	return m
}

// Kind returns the output head kind.
func (m *MLP) Kind() OutputKind { return m.kind }

// InputDim returns the input dimensionality.
func (m *MLP) InputDim() int { return m.sizes[0] }

// Hidden returns a copy of the hidden layer widths.
func (m *MLP) Hidden() []int {
	return append([]int{}, m.sizes[1:len(m.sizes)-1]...)
}

// Params implements GradModel.
func (m *MLP) Params() []float64 { return m.params }

// layer returns the weight (out×in, row-major by output unit) and bias
// slices of layer l.
func (m *MLP) layer(l int) (w, b []float64) {
	in, out := m.sizes[l], m.sizes[l+1]
	start := m.offsets[l]
	return m.params[start : start+in*out], m.params[start+in*out : start+in*out+out]
}

// forward runs the network on x, filling the buffers of b, and returns
// the raw output (pre-head). A row that is not InputDim wide panics: a
// short one would otherwise keep the previous row's tail.
func (m *MLP) forward(b *activations, x []float64) float64 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("ml: MLP row has %d features, the model takes %d", len(x), m.sizes[0]))
	}
	copy(b.acts[0], x)
	layers := len(m.sizes) - 1
	for l := 0; l < layers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, bias := m.layer(l)
		src := b.acts[l][:in]
		for j := 0; j < out; j++ {
			sum := bias[j]
			row := w[j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				sum += row[i] * src[i]
			}
			b.zs[l+1][j] = sum
			if l < layers-1 {
				if sum < 0 {
					sum = 0 // ReLU
				}
			}
			b.acts[l+1][j] = sum
		}
	}
	return b.zs[layers][0]
}

// Predict implements Model: the regression head returns the raw output,
// the classification head a sigmoid probability.
func (m *MLP) Predict(x []float64) float64 {
	b := m.passes.Get().(*activations)
	z := m.forward(b, x)
	m.passes.Put(b)
	return m.kind.head(z)
}

// PredictBatch implements Model with one set of buffers for the whole
// batch; the kind branch is hoisted out of the per-row loop.
func (m *MLP) PredictBatch(rows [][]float64, out []float64) {
	b := m.passes.Get().(*activations)
	defer m.passes.Put(b)
	if m.kind == BinaryClassification {
		for i, x := range rows {
			out[i] = Sigmoid(m.forward(b, x))
		}
		return
	}
	for i, x := range rows {
		out[i] = m.forward(b, x)
	}
}

// addGrad implements GradModel via backpropagation. For both heads the
// output delta is (prediction − label): squared loss (halved) with
// identity output and log loss with sigmoid output share this form.
// Layer l's gradient is the outer product δ_{l+1}·a_lᵀ (W) and δ_{l+1}
// (b), so it is formed term by term in two passes that write nothing
// but sum: the first, only when clip > 0, sums its squares in parameter
// order for the norm; the second adds each term times the clip's scale.
// Only the inputs with a_i ≠ 0 take part — a skipped term is ±0, which
// moves neither a sum of squares nor a sum that starts at +0 — so what
// is added is the dense gradient scaled as a whole vector, to the bit.
// The exception is a non-finite δ: the dense Inf·0 or NaN·0 is NaN,
// where the entries of inputs with a_i = 0 are left untouched here.
func (m *MLP) addGrad(sum, x []float64, y, clip float64) {
	pred := m.kind.head(m.forward(&m.activations, x))
	layers := len(m.sizes) - 1
	m.errs[layers][0] = pred - y
	// Backpropagate deltas through ReLU layers, reading W by rows: each
	// delta still sums over j in order from +0.
	for l := layers - 1; l >= 1; l-- {
		in := m.sizes[l]
		w, _ := m.layer(l)
		e := m.errs[l]
		clear(e)
		for j, d := range m.errs[l+1] {
			for i, wi := range w[j*in : (j+1)*in] {
				e[i] += wi * d
			}
		}
		for i, zi := range m.zs[l] {
			if zi <= 0 {
				e[i] = 0 // ReLU derivative
			}
		}
	}
	for l := 0; l < layers; l++ {
		nz := m.nz[l][:0]
		for i, a := range m.acts[l] {
			if a != 0 {
				nz = append(nz, int32(i))
			}
		}
		m.nz[l] = nz
	}
	scale := 1.0
	if clip > 0 {
		sq := 0.0
		for l := 0; l < layers; l++ {
			a, nz := m.acts[l], m.nz[l]
			for _, d := range m.errs[l+1] {
				for _, i := range nz {
					v := d * a[i]
					sq += v * v
				}
			}
			for _, d := range m.errs[l+1] {
				sq += d * d
			}
		}
		if norm := math.Sqrt(sq); norm > clip {
			scale = clip / norm
		}
	}
	for l := 0; l < layers; l++ {
		in, a, nz := m.sizes[l], m.acts[l], m.nz[l]
		start := m.offsets[l]
		deltas := m.errs[l+1]
		bias := sum[start+in*len(deltas):]
		for j, d := range deltas {
			row := sum[start+j*in : start+(j+1)*in]
			for _, i := range nz {
				// Rounded before the add, as the dense gradient is
				// stored, also where Go fuses a multiply-add.
				row[i] += float64(d * a[i] * scale)
			}
			bias[j] += float64(d * scale)
		}
	}
}
