package ml

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// denseMoments is the reference for moments: the row path as it stood
// before the gather moved in front of it — copy the row into a scratch,
// let prepare rescale and clip all of it, accumulate every cell of XᵀX
// and Xᵀy, zeros included — over the whole dataset in one serial walk.
func denseMoments(ds *data.Dataset, prepare func(row []float64, label float64) float64) (xtx *linalg.Matrix, xty []float64) {
	d := ds.FeatureDim()
	xtx, xty = &linalg.Matrix{Rows: d + 1, Cols: d + 1, Data: make([]float64, (d+1)*(d+1))}, make([]float64, d+1)
	row := make([]float64, d+1)
	for _, ex := range ds.Examples {
		copy(row, ex.Features)
		row[d] = 1
		y := ex.Label
		if prepare != nil {
			y = prepare(row, y)
		}
		for i, xi := range row {
			for j, xj := range row {
				xtx.Add(i, j, xi*xj)
			}
			xty[i] += y * xi
		}
	}
	return xtx, xty
}

// momentRows builds n rows of width d cycling through the shapes the
// clip has to get right: one-hot-heavy and inside the feature ball,
// dense and far outside it, all-zero, and sparse with a -0.0 entry.
func momentRows(n, d int, r *rng.RNG) *data.Dataset {
	ds := data.NewDataset(n, d)
	for k := range ds.Examples {
		ex := &ds.Examples[k]
		switch k % 4 {
		case 0:
			for h := 0; h < 3; h++ {
				ex.Features[r.IntN(d)] = 1
			}
			ex.Features[d-1] = 0.4
		case 1:
			for i := range ex.Features {
				ex.Features[i] = r.Normal(0, 3)
			}
		case 2:
		case 3:
			for h := 0; h < 3; h++ {
				ex.Features[r.IntN(d)] = r.Normal(0, 1)
			}
			ex.Features[r.IntN(d)] = math.Copysign(0, -1)
		}
		ex.Label = r.Normal(0, 2) // beyond the label bound about half the time
	}
	return ds
}

// TestMomentsMatchDensePreparePath holds the sums TrainAdaSSP adds its
// noise to, and the ones TrainRidge solves, to the dense path bit for
// bit. The clipped rows are the point: their norm bound is the
// sensitivity AdaSSP's noise is calibrated to, so scaling and clipping
// the gathered non-zeros must give exactly the values Scale and clipL2
// give on the whole row.
func TestMomentsMatchDensePreparePath(t *testing.T) {
	const d, featureBound, labelBound = 12, 2.5, 1.0
	for _, n := range []int{1, 7, 2000, 10000} {
		ds := momentRows(n, d, rng.New(uint64(n)))
		fscale, lscale := 1/featureBound, 1/labelBound
		clipped := 0
		wantXtX, wantXty := denseMoments(ds, func(row []float64, label float64) float64 {
			linalg.Scale(fscale, row)
			if clipL2(row, 1) > 1 {
				clipped++
			}
			return privacy.Clip(label*lscale, -1, 1)
		})
		if n >= 7 && (clipped == 0 || clipped == n) {
			t.Fatalf("n=%d: %d rows clipped; the test needs both kinds", n, clipped)
		}
		gotXtX, gotXty := moments(new(linalg.Moments), ds, fscale, lscale, true)
		sameBits(t, fmt.Sprintf("AdaSSP n=%d", n), gotXtX, gotXty, wantXtX, wantXty)

		wantXtX, wantXty = denseMoments(ds, nil)
		gotXtX, gotXty = moments(new(linalg.Moments), ds, 1, 1, false)
		sameBits(t, fmt.Sprintf("ridge n=%d", n), gotXtX, gotXty, wantXtX, wantXty)
	}
}

func sameBits(t *testing.T, name string, gotXtX *linalg.Matrix, gotXty []float64, wantXtX *linalg.Matrix, wantXty []float64) {
	t.Helper()
	d := len(wantXty)
	for i := range wantXtX.Data {
		if math.Float64bits(gotXtX.Data[i]) != math.Float64bits(wantXtX.Data[i]) {
			t.Fatalf("%s: XᵀX[%d][%d] = %x, dense path %x", name, i/d, i%d, gotXtX.Data[i], wantXtX.Data[i])
		}
	}
	for i := range wantXty {
		if math.Float64bits(gotXty[i]) != math.Float64bits(wantXty[i]) {
			t.Fatalf("%s: Xᵀy[%d] = %x, dense path %x", name, i, gotXty[i], wantXty[i])
		}
	}
}

var testAdaSSP = AdaSSPConfig{Budget: privacy.Budget{Epsilon: 1, Delta: 1e-6}, Rho: 0.1, FeatureBound: 2.5, LabelBound: 1}

// TestMomentsRaggedRowPanics: a row narrower or wider than the dataset's
// first must stop training and name itself, not be padded with the
// previous row's tail or cut short.
func TestMomentsRaggedRowPanics(t *testing.T) {
	for _, width := range []int{3, 5} {
		ds := momentRows(10, 4, rng.New(1))
		ds.Examples[6].Features = make([]float64, width)
		for name, train := range map[string]func(){
			"TrainRidge":  func() { TrainRidge(ds, RidgeConfig{Lambda: 1}) },
			"TrainAdaSSP": func() { TrainAdaSSP(ds, testAdaSSP, rng.New(2)) },
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "row 6") {
						t.Errorf("%s over a row of width %d among rows of width 4: panic %q, want one naming row 6", name, width, msg)
					}
				}()
				train()
			}()
		}
	}
}
