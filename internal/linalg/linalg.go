// Package linalg provides the small dense linear-algebra kernel the ML
// substrate needs: vectors, symmetric matrices, the moment accumulator
// and Cholesky solves of ridge regression (AdaSSP), and power iteration
// for extreme eigenvalues. Everything is stdlib-only and deterministic.
package linalg

import (
	"fmt"
	"math"
	"slices"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// reshape makes m a rows×cols matrix, over its own storage when that
// has the room. The contents are whatever was there: the callers
// overwrite or clear them.
func (m *Matrix) reshape(rows, cols int) {
	m.Rows, m.Cols = rows, cols
	m.Data = slices.Grow(m.Data[:0], rows*cols)[:rows*cols]
}

// Add increments element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// MulVecInto computes dst = m·x without allocating. dst must have length
// m.Rows; iterative callers (power iteration) reuse it across calls.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto destination length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		dst[i] = Dot(row, x)
	}
}

// AddDiagonal adds lambda to every diagonal element in place.
func (m *Matrix) AddDiagonal(lambda float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += lambda
	}
}

// Moments accumulates the normal-equation sums XᵀX and Xᵀy over a
// stream of rows — the one pass over the data that ridge regression and
// AdaSSP share. A row goes in as two calls. Gather reads it once, where
// it is stored, into the (index, value) pairs of its non-zeros; the
// caller may rescale or clip those values in place. Update then touches
// only the cells they reach: nnz·(nnz+1)/2 of XᵀX's upper triangle and
// nnz of Xᵀy, which for the one-hot-heavy Taxi/Criteo rows (7 of 49
// non-zero) is a fifth of the dense update, and nothing after the gather
// walks the row's zeros. Every skipped term is a ±0 (xi·0 into a cell,
// 0·0 into a norm summed in ascending index), so for finite rows the
// sums are bit-identical to the dense ones (linalg_test.go keeps the
// dense form as the reference). Where a row's non-zeros fall is visible
// in the addresses Update writes; the trainers run inside the trusted
// platform (§2.2), where nobody is placed to watch them.
type Moments struct {
	xtx Matrix
	xty []float64
	// The gathered row (scratch, len d): its first n entries are the
	// non-zeros' indices, ascending, and their values.
	idx []int
	val []float64
	n   int
}

// Reset empties the moments for rows of dimension d, over the storage
// they already have when it has the room, so one accumulator serves fit
// after fit. The zero Moments is ready for Reset.
func (m *Moments) Reset(d int) {
	m.xtx.reshape(d, d)
	clear(m.xtx.Data)
	m.xty = slices.Grow(m.xty[:0], d)[:d]
	clear(m.xty)
	m.idx = slices.Grow(m.idx[:0], d)[:d]
	m.val = slices.Grow(m.val[:0], d)[:d]
	m.n = 0
}

// Gather loads the row (x…, bias) — x followed by the constant column
// the linear trainers augment with — and returns its non-zero values in
// ascending index order, for the caller to rescale in place before
// Update. The bias entry is always last, zero or not. It panics if the
// row's dimension is not the moments'.
func (m *Moments) Gather(x []float64, bias float64) []float64 {
	d := len(m.xty)
	if len(x)+1 != d {
		panic(fmt.Sprintf("linalg: Moments.Gather row of dimension %d, want %d", len(x)+1, d))
	}
	// Gather without a data-dependent store: every index is written, the
	// cursor moves on only past a non-zero. Where the non-zeros of a
	// one-hot row fall is not predictable, a conditional append pays for
	// that in mispredicted branches. The test is v != 0 asked of the bits
	// (the shift drops the sign: both zeros are zero, a NaN is not), which
	// compiles to one conditional move; the float comparison must also ask
	// whether its operands were ordered and costs a second. Over rows
	// already in cache the scan is bound by these instructions: storing
	// each value beside its index and testing the float read
	// BenchmarkAdaSSPTrain 2.9-3.0 ms, this reads 2.5.
	idx := m.idx
	k := 0
	for i, v := range x {
		idx[k] = i
		if math.Float64bits(v)<<1 != 0 {
			k++
		}
	}
	idx[k] = d - 1
	m.n = k + 1
	val := m.val[:m.n]
	for a, i := range idx[:k] {
		val[a] = x[i]
	}
	val[k] = bias
	return val
}

// Update accumulates the gathered row with label y: XᵀX += x·xᵀ (upper
// triangle), Xᵀy += y·x.
func (m *Moments) Update(y float64) {
	d := len(m.xty)
	idx, val := m.idx[:m.n], m.val[:m.n]
	for a, i := range idx {
		xi := val[a]
		row := m.xtx.Data[i*d : (i+1)*d]
		vs := val[a:]
		for b, j := range idx[a:] {
			row[j] += xi * vs[b]
		}
		m.xty[i] += y * xi
	}
}

// Sums completes XᵀX (the strict upper triangle is mirrored onto the
// lower one) and returns it with Xᵀy. The moments own both, until the
// next Reset; callers may modify them once accumulation is done.
func (m *Moments) Sums() (xtx *Matrix, xty []float64) {
	d := len(m.xty)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			m.xtx.Data[j*d+i] = m.xtx.Data[i*d+j]
		}
	}
	return &m.xtx, m.xty
}

// Cholesky factors a symmetric positive-definite matrix in place: on
// success m's lower triangle, diagonal included, is the L with
// m = L·Lᵀ, which is all SolveCholesky reads; the strict upper triangle
// is left as it was. It returns false, with m partly overwritten, if
// the matrix is not positive definite (within a small tolerance).
func Cholesky(m *Matrix) bool {
	if m.Rows != m.Cols {
		panic("linalg: Cholesky requires a square matrix")
	}
	n := m.Rows
	l := m.Data
	for j := 0; j < n; j++ {
		// Row slices keep the inner dot products on contiguous memory
		// instead of paying an index multiply per At() access. Column j
		// is read before it is overwritten, and L's rows left of it are
		// final, so the factor needs no storage of its own.
		lj := l[j*n : j*n+j]
		sum := l[j*n+j]
		for _, v := range lj {
			sum -= v * v
		}
		if sum <= 1e-14 {
			return false
		}
		diag := math.Sqrt(sum)
		l[j*n+j] = diag
		for i := j + 1; i < n; i++ {
			li := l[i*n : i*n+j]
			s := l[i*n+j]
			for k := range lj {
				s -= li[k] * lj[k]
			}
			l[i*n+j] = s / diag
		}
	}
	return true
}

// SolveCholesky solves m·x = b via the Cholesky factor L in l's lower
// triangle (forward then backward substitution).
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("linalg: SolveCholesky dimension mismatch")
	}
	// Forward: L·y = b, with each row of L as one contiguous slice.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := l.Data[i*n : i*n+i]
		s := b[i]
		for k, v := range row {
			s -= v * y[k]
		}
		y[i] = s / l.Data[i*n+i]
	}
	// Backward: Lᵀ·x = y. Lᵀ's rows are L's columns, so walk column i
	// with a strided index rather than At() per element.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * x[k]
		}
		x[i] = s / l.Data[i*n+i]
	}
	return x
}

// SolveSPD solves m·x = b for symmetric positive-definite m, adding
// progressively larger ridge terms if m is singular. factor is its
// workspace, reshaped to m's: each try copies m there and factors it in
// place, so m is left as it was and a caller that hands in the same
// workspace fit after fit allocates no matrix. It panics only if the
// system remains unsolvable after heavy regularization.
func SolveSPD(m *Matrix, b []float64, factor *Matrix) []float64 {
	factor.reshape(m.Rows, m.Cols)
	ridge := 0.0
	for attempt := 0; attempt < 12; attempt++ {
		copy(factor.Data, m.Data)
		if ridge > 0 {
			factor.AddDiagonal(ridge)
		}
		if Cholesky(factor) {
			return SolveCholesky(factor, b)
		}
		if ridge == 0 {
			ridge = 1e-10
		} else {
			ridge *= 100
		}
	}
	panic("linalg: SolveSPD failed even with heavy regularization")
}

// MaxEigen estimates the largest eigenvalue of a symmetric matrix via
// power iteration. iters=100 is ample for the well-separated Gram
// matrices AdaSSP sees.
func MaxEigen(m *Matrix, iters int) float64 {
	if m.Rows != m.Cols {
		panic("linalg: MaxEigen requires a square matrix")
	}
	n := m.Rows
	if n == 0 {
		return 0
	}
	v := make([]float64, n)
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.01*float64(i%7))
	}
	// Two ping-pong buffers: the loop allocates nothing, and the
	// Rayleigh quotient is only evaluated once convergence iterations
	// are done (intermediate quotients were discarded anyway).
	w := make([]float64, n)
	for it := 0; it < iters; it++ {
		m.MulVecInto(w, v)
		norm := Norm2(w)
		if norm == 0 {
			return 0
		}
		Scale(1/norm, w)
		v, w = w, v
	}
	m.MulVecInto(w, v)
	return Dot(v, w)
}

// MinEigen estimates the smallest eigenvalue of a symmetric
// positive-semidefinite matrix via power iteration on (c·I − m) where c
// upper-bounds the spectrum. AdaSSP needs λ_min(XᵀX) for its adaptive
// regularization. shifted is its workspace, reshaped to m's, where
// c·I − m is formed; m is left as it was.
func MinEigen(m *Matrix, iters int, shifted *Matrix) float64 {
	c := MaxEigen(m, iters) * 1.01
	if c == 0 {
		return 0
	}
	shifted.reshape(m.Rows, m.Cols)
	copy(shifted.Data, m.Data)
	Scale(-1, shifted.Data)
	shifted.AddDiagonal(c)
	mu := MaxEigen(shifted, iters)
	min := c - mu
	if min < 0 {
		return 0
	}
	return min
}
