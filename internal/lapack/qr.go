package lapack

import (
	"fmt"
	"math"
)

// householderQR holds a Householder QR factorization A = Q·R of an m×n
// matrix with m >= n. The factors are stored compactly: R in the upper
// triangle, the Householder vectors below the diagonal, with their
// scalar factors in tau.
type householderQR struct {
	qr  Mat
	tau []float64
}

// qrFactor computes the factorization.
func qrFactor(a Mat) (*householderQR, error) {
	if a.M < a.N {
		return nil, fmt.Errorf("%w: QR wants m >= n, got %dx%d", errShape, a.M, a.N)
	}
	f := &householderQR{qr: a.Clone(), tau: make([]float64, a.N)}
	m, n := a.M, a.N
	for k := 0; k < n; k++ {
		col := f.qr.Col(k)[k:]
		alpha := norm2(col)
		if alpha == 0 {
			f.tau[k] = 0
			continue
		}
		if col[0] > 0 {
			alpha = -alpha
		}
		// v = x - alpha·e1, normalized so v[0] = 1.
		v0 := col[0] - alpha
		for i := 1; i < len(col); i++ {
			col[i] /= v0
		}
		f.tau[k] = -v0 / alpha
		col[0] = alpha // R diagonal entry; v[0]=1 is implicit
		// Apply H = I - tau·v·vᵀ to the remaining columns.
		for j := k + 1; j < n; j++ {
			cj := f.qr.Col(j)[k:]
			s := cj[0]
			for i := 1; i < m-k; i++ {
				s += f.qr.Col(k)[k+i] * cj[i]
			}
			s *= f.tau[k]
			cj[0] -= s
			for i := 1; i < m-k; i++ {
				cj[i] -= s * f.qr.Col(k)[k+i]
			}
		}
	}
	return f, nil
}

// applyQT applies Qᵀ to a vector of length m in place.
func (f *householderQR) applyQT(y []float64) {
	m, n := f.qr.M, f.qr.N
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		v := f.qr.Col(k)[k:]
		s := y[k]
		for i := 1; i < m-k; i++ {
			s += v[i] * y[k+i]
		}
		s *= f.tau[k]
		y[k] -= s
		for i := 1; i < m-k; i++ {
			y[k+i] -= s * v[i]
		}
	}
}

// Solve returns the least-squares solution x minimizing ||A·x - b||₂.
func (f *householderQR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.M, f.qr.N
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs length %d for %d rows", errShape, len(b), m)
	}
	y := append([]float64(nil), b...)
	f.applyQT(y)
	// Back-substitute R·x = y[:n], detecting rank deficiency relative to
	// the largest diagonal magnitude.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(f.qr.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	x := y[:n]
	for i := n - 1; i >= 0; i-- {
		d := f.qr.At(i, i)
		if math.Abs(d) <= 1e-12*maxDiag {
			return nil, fmt.Errorf("%w: negligible pivot at column %d", errSingular, i)
		}
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return append([]float64(nil), x...), nil
}

// LeastSquares solves min ||A·x - b||₂ in one call.
func LeastSquares(a Mat, b []float64) ([]float64, error) {
	f, err := qrFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// MaskedLeastSquares solves the least-squares problem using only the rows
// where mask is zero — the paper's flagged-pixel fitting (§2.2): rows
// whose flags mark bad measurements are excluded from the normal
// equations entirely.
func MaskedLeastSquares(a Mat, b []float64, mask []int64) ([]float64, error) {
	if len(b) != a.M || len(mask) != a.M {
		return nil, fmt.Errorf("%w: %d rows, %d rhs, %d mask", errShape, a.M, len(b), len(mask))
	}
	rows := 0
	for _, f := range mask {
		if f == 0 {
			rows++
		}
	}
	if rows < a.N {
		return nil, fmt.Errorf("%w: only %d unmasked rows for %d unknowns", errSingular, rows, a.N)
	}
	sub := NewMat(rows, a.N)
	rb := make([]float64, rows)
	r := 0
	for i := 0; i < a.M; i++ {
		if mask[i] != 0 {
			continue
		}
		for j := 0; j < a.N; j++ {
			sub.Set(r, j, a.At(i, j))
		}
		rb[r] = b[i]
		r++
	}
	return LeastSquares(sub, rb)
}
