package main

import (
	"errors"
	"math"

	"repro/internal/sparse"
)

// The functions in this file recompute, with the benchmark's own code, what
// the program under test computes: the logistic loss, one full-batch
// gradient step, a served score, and the optimum the descents aim at. They
// read only the generated CSR arrays, never the program's model or kernels.

// softplus is log(1+exp(z)) without overflow.
func softplus(z float64) float64 {
	if z > 0 {
		return z + math.Log1p(math.Exp(-z))
	}
	return math.Log1p(math.Exp(z))
}

// sigmoid is 1/(1+exp(-z)) without overflow.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// rowDot is x_i . w over the stored entries of row i, in storage order.
func rowDot(x *sparse.CSR, i int, w []float64) float64 {
	var s float64
	for k := x.RowPtr[i]; k < x.RowPtr[i+1]; k++ {
		s += x.Values[k] * w[x.ColIdx[k]]
	}
	return s
}

// meanLoss is the mean logistic loss of w over every row, summed in row
// order.
func meanLoss(x *sparse.CSR, y, w []float64) float64 {
	var s float64
	for i := 0; i < x.NumRows; i++ {
		s += softplus(-y[i] * rowDot(x, i, w))
	}
	return s / float64(x.NumRows)
}

// fullBatchStep returns w0 - step * grad f(w0): one step of batch gradient
// descent on the mean logistic loss.
func fullBatchStep(x *sparse.CSR, y, w0 []float64, step float64) []float64 {
	g := make([]float64, x.NumCols)
	for i := 0; i < x.NumRows; i++ {
		c := -y[i] * sigmoid(-y[i]*rowDot(x, i, w0))
		for k := x.RowPtr[i]; k < x.RowPtr[i+1]; k++ {
			g[x.ColIdx[k]] += c * x.Values[k]
		}
	}
	out := make([]float64, len(w0))
	n := float64(x.NumRows)
	for j := range out {
		out[j] = w0[j] - step*g[j]/n
	}
	return out
}

// referenceOptimum minimises the mean logistic loss by Newton's method with
// Levenberg damping and returns the optimal loss and weights. The damping
// matters: covtype's one-hot column groups each sum to one, so the Hessian
// is singular and an undamped Newton system has no unique solution. The
// gradient always lies in the row space of X, so the damped steps still
// reach the optimal loss. Stored zeros are skipped, which keeps the dense
// covtype Hessian as cheap as its 12 true non-zeros per row.
func referenceOptimum(x *sparse.CSR, y []float64) (float64, []float64, error) {
	d := x.NumCols
	n := float64(x.NumRows)
	w := make([]float64, d)
	g := make([]float64, d)
	h := make([]float64, d*d)
	a := make([]float64, d*d)
	step := make([]float64, d)
	trial := make([]float64, d)
	loss := meanLoss(x, y, w)
	lambda := 1e-6
	for iter := 0; iter < 200; iter++ {
		clear(g)
		clear(h)
		for i := 0; i < x.NumRows; i++ {
			lo, hi := x.RowPtr[i], x.RowPtr[i+1]
			z := rowDot(x, i, w)
			c := -y[i] * sigmoid(-y[i]*z)
			p := sigmoid(z)
			s := p * (1 - p)
			for k := lo; k < hi; k++ {
				vk := x.Values[k]
				if vk == 0 {
					continue
				}
				ck := int(x.ColIdx[k])
				g[ck] += c * vk
				row := h[ck*d:]
				for l := lo; l <= k; l++ {
					if vl := x.Values[l]; vl != 0 {
						row[x.ColIdx[l]] += s * vk * vl
					}
				}
			}
		}
		var gmax float64
		for j := range g {
			g[j] /= n
			gmax = math.Max(gmax, math.Abs(g[j]))
		}
		if gmax < 1e-12 {
			return loss, w, nil
		}
		// Symmetrise (only entries with col <= row index in storage order
		// were accumulated; columns are sorted within a row).
		for r := 0; r < d; r++ {
			for c := 0; c < r; c++ {
				v := (h[r*d+c] + h[c*d+r]) / n
				h[r*d+c], h[c*d+r] = v, v
			}
			h[r*d+r] /= n
		}
		for {
			copy(a, h)
			for j := 0; j < d; j++ {
				a[j*d+j] += lambda
				step[j] = -g[j]
			}
			if !choleskySolve(a, step, d) {
				lambda *= 10
				continue
			}
			for j := range trial {
				trial[j] = w[j] + step[j]
			}
			tl := meanLoss(x, y, trial)
			if tl <= loss {
				copy(w, trial)
				improved := loss - tl
				loss = tl
				lambda = math.Max(lambda/10, 1e-12)
				if improved == 0 {
					return loss, w, nil
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				return loss, w, nil // no descent direction left: stationary
			}
		}
	}
	return loss, w, errors.New("reference solver: no convergence in 200 Newton steps")
}

// choleskySolve solves a*x = b in place (b becomes x) for a symmetric
// positive definite d×d matrix a, which it overwrites with its factor. It
// reports false when a is not numerically positive definite.
func choleskySolve(a, b []float64, d int) bool {
	for j := 0; j < d; j++ {
		s := a[j*d+j]
		for k := 0; k < j; k++ {
			s -= a[j*d+k] * a[j*d+k]
		}
		if s <= 0 || math.IsNaN(s) {
			return false
		}
		ljj := math.Sqrt(s)
		a[j*d+j] = ljj
		for i := j + 1; i < d; i++ {
			s := a[i*d+j]
			for k := 0; k < j; k++ {
				s -= a[i*d+k] * a[j*d+k]
			}
			a[i*d+j] = s / ljj
		}
	}
	for i := 0; i < d; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*d+k] * b[k]
		}
		b[i] = s / a[i*d+i]
	}
	for i := d - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < d; k++ {
			s -= a[k*d+i] * b[k]
		}
		b[i] = s / a[i*d+i]
	}
	return true
}
