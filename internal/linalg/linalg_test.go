package linalg

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, x)
	return out
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestAXPYScale(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Errorf("At = %v", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 7 {
		t.Error("Clone aliases original")
	}
	got := m.MulVec([]float64{1, 2, 3})
	if got[0] != 14 || got[1] != 0 {
		t.Errorf("MulVec = %v", got)
	}
}

// Gram is the dense form of the outer-product update, m += x·xᵀ over
// every cell: what Moments must equal bit for bit, and how the tests
// below build their SPD matrices.
func (m *Matrix) Gram(x []float64) {
	for i, xi := range x {
		for j, xj := range x {
			m.Data[i*m.Cols+j] += xi * xj
		}
	}
}

func TestGram(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Gram([]float64{1, 2})
	m.Gram([]float64{3, 4})
	// XᵀX for X = [[1,2],[3,4]] = [[10,14],[14,20]].
	want := [][]float64{{10, 14}, {14, 20}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Errorf("Gram[%d][%d] = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD system: [[4,2],[2,3]]·x = [1, 2] → x = [-1/8, 3/4].
	m := NewMatrix(2, 2)
	m.Set(0, 0, 4)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 3)
	if !Cholesky(m) {
		t.Fatal("Cholesky failed on SPD matrix")
	}
	x := SolveCholesky(m, []float64{1, 2})
	if math.Abs(x[0]+0.125) > 1e-12 || math.Abs(x[1]-0.75) > 1e-12 {
		t.Errorf("solution = %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, -1)
	if Cholesky(m) {
		t.Error("Cholesky accepted an indefinite matrix")
	}
}

func TestSolveSPDRegularizesSingular(t *testing.T) {
	// Rank-deficient matrix; SolveSPD should still return something
	// finite via ridge escalation.
	m := NewMatrix(2, 2)
	m.Gram([]float64{1, 1})
	x := SolveSPD(m, []float64{2, 2}, new(Matrix))
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("solution = %v", x)
		}
	}
}

func TestEigenExtremes(t *testing.T) {
	// diag(5, 2, 0.5): λmax = 5, λmin = 0.5.
	m := NewMatrix(3, 3)
	m.Set(0, 0, 5)
	m.Set(1, 1, 2)
	m.Set(2, 2, 0.5)
	if got := MaxEigen(m, 200); math.Abs(got-5) > 1e-6 {
		t.Errorf("MaxEigen = %v, want 5", got)
	}
	if got := MinEigen(m, 200, new(Matrix)); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("MinEigen = %v, want 0.5", got)
	}
}

func TestEigenNonDiagonal(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	if got := MaxEigen(m, 200); math.Abs(got-3) > 1e-6 {
		t.Errorf("MaxEigen = %v, want 3", got)
	}
	if got := MinEigen(m, 200, new(Matrix)); math.Abs(got-1) > 1e-3 {
		t.Errorf("MinEigen = %v, want 1", got)
	}
}

// Property: Cholesky solve inverts multiplication for random SPD systems
// built as Gram matrices plus a ridge.
func TestSolveRoundTripProperty(t *testing.T) {
	f := func(raw []int8) bool {
		const d = 3
		if len(raw) < d*d+d {
			return true
		}
		g := NewMatrix(d, d)
		for r := 0; r < d; r++ {
			row := make([]float64, d)
			for c := 0; c < d; c++ {
				row[c] = float64(raw[r*d+c]) / 32
			}
			g.Gram(row)
		}
		g.AddDiagonal(0.5) // ensure SPD
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			x[i] = float64(raw[d*d+i]) / 32
		}
		b := g.MulVec(x)
		got := SolveSPD(g, b, new(Matrix))
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MaxEigen dominates the Rayleigh quotient of any probe vector.
func TestMaxEigenDominatesProperty(t *testing.T) {
	f := func(raw []int8) bool {
		const d = 3
		if len(raw) < d*d+d {
			return true
		}
		g := NewMatrix(d, d)
		for r := 0; r < d; r++ {
			row := make([]float64, d)
			for c := 0; c < d; c++ {
				row[c] = float64(raw[r*d+c]) / 32
			}
			g.Gram(row)
		}
		v := make([]float64, d)
		norm := 0.0
		for i := 0; i < d; i++ {
			v[i] = float64(raw[d*d+i])/32 + 0.01
			norm += v[i] * v[i]
		}
		if norm == 0 {
			return true
		}
		rayleigh := Dot(v, g.MulVec(v)) / norm
		return MaxEigen(g, 300) >= rayleigh-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMomentsMatchDenseReference holds the sparse accumulator to the
// dense sums bit for bit, over rows of every density it can meet:
// all-zero, one-hot-heavy (the taxi shape), fully dense, and rows
// carrying a -0.0, which counts as a zero to skip.
func TestMomentsMatchDenseReference(t *testing.T) {
	const d = 13
	r := rng.New(7)
	var rows [][]float64
	var labels []float64
	for k := 0; k < 400; k++ {
		row := make([]float64, d)
		switch k % 4 {
		case 0: // all-zero
		case 1: // one-hot-heavy: three hot buckets and a constant
			for h := 0; h < 3; h++ {
				row[r.IntN(d-1)] = 1
			}
			row[d-1] = 0.4
		case 2: // fully dense
			for i := range row {
				row[i] = r.Normal(0, 1)
			}
		case 3: // sparse reals with a negative zero among them
			for h := 0; h < 4; h++ {
				row[r.IntN(d)] = r.Normal(0, 1)
			}
			row[r.IntN(d)] = math.Copysign(0, -1)
		}
		rows = append(rows, row)
		labels = append(labels, r.Normal(0, 1))
	}
	labels[1], labels[2] = 0, math.Copysign(0, -1)

	var acc Moments
	acc.Reset(d)
	wantXtX := NewMatrix(d, d)
	wantXty := make([]float64, d)
	for k, row := range rows {
		acc.Gather(row[:d-1], row[d-1])
		acc.Update(labels[k])
		wantXtX.Gram(row)
		AXPY(labels[k], row, wantXty)
	}
	xtx, xty := acc.Sums()
	for i := range wantXtX.Data {
		if math.Float64bits(xtx.Data[i]) != math.Float64bits(wantXtX.Data[i]) {
			t.Fatalf("XᵀX[%d][%d] = %x, dense reference %x", i/d, i%d, xtx.Data[i], wantXtX.Data[i])
		}
	}
	for i := range wantXty {
		if math.Float64bits(xty[i]) != math.Float64bits(wantXty[i]) {
			t.Fatalf("Xᵀy[%d] = %x, dense reference %x", i, xty[i], wantXty[i])
		}
	}
}

// TestWorkspacesCarryNothingOver: SolveSPD and MinEigen into a workspace
// last used for a larger system, and moments reset after a larger
// accumulation, read bit for bit what fresh storage reads, and the two
// solvers leave the matrix they are handed as it was — a singular one
// included, which takes SolveSPD more than one try.
func TestWorkspacesCarryNothingOver(t *testing.T) {
	r := rng.New(11)
	gram := func(d int, singular bool) *Matrix {
		m := NewMatrix(d, d)
		for k := 0; k < d; k++ {
			row := make([]float64, d)
			for i := range row {
				row[i] = r.Normal(0, 1)
			}
			if singular {
				row[d-1] = 0 // a zero diagonal: the first try fails
			}
			m.Gram(row)
		}
		return m
	}
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %x, want %x", name, i, got[i], want[i])
			}
		}
	}
	var factor, shifted Matrix
	SolveSPD(gram(9, false), make([]float64, 9), &factor)
	MinEigen(gram(9, false), 50, &shifted)
	for _, singular := range []bool{false, true} {
		m := gram(5, singular)
		before := slices.Clone(m.Data)
		b := []float64{1, -2, 3, 0.5, 4}
		same("SolveSPD", SolveSPD(m, b, &factor), SolveSPD(m, b, new(Matrix)))
		same("MinEigen", []float64{MinEigen(m, 50, &shifted)}, []float64{MinEigen(m, 50, new(Matrix))})
		same("the solvers' input", m.Data, before)
	}

	var acc, fresh Moments
	acc.Reset(9)
	acc.Gather([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1)
	acc.Update(3)
	acc.Reset(4)
	fresh.Reset(4)
	for _, a := range []*Moments{&acc, &fresh} {
		a.Gather([]float64{0, 1.5, -2}, 1)
		a.Update(0.25)
	}
	gotXtX, gotXty := acc.Sums()
	wantXtX, wantXty := fresh.Sums()
	same("XᵀX", gotXtX.Data, wantXtX.Data)
	same("Xᵀy", gotXty, wantXty)
	if gotXtX.Rows != 4 || len(gotXtX.Data) != 16 || len(gotXty) != 4 {
		t.Fatalf("reset moments are %d×%d with %d sums, want 4×4 with 4", gotXtX.Rows, gotXtX.Cols, len(gotXty))
	}
}
