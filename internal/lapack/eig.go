package lapack

import (
	"fmt"
	"math"
	"sort"
)

// EigResult holds the spectral decomposition A = Q·diag(λ)·Qᵀ of a
// symmetric matrix: eigenvalues λ in descending order, eigenvectors as
// the columns of Q.
type EigResult struct {
	Values  []float64
	Vectors Mat
}

// SymEig diagonalizes a symmetric matrix with the classical cyclic
// Jacobi method. The PCA pipeline (§2.2) runs it on spectrum covariance
// matrices.
func SymEig(a Mat) (EigResult, error) {
	if a.M != a.N {
		return EigResult{}, fmt.Errorf("%w: %dx%d is not square", errShape, a.M, a.N)
	}
	n := a.N
	w := a.Clone()
	q := identity(n)
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for r := p + 1; r < n; r++ {
				off += w.At(p, r) * w.At(p, r)
			}
		}
		if math.Sqrt(off) < 1e-14 {
			break
		}
		for p := 0; p < n-1; p++ {
			for r := p + 1; r < n; r++ {
				apq := w.At(p, r)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(r, r)
				zeta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Rotate rows/columns p and r of W.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, r)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, r, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(r, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(r, k, s*wpk+c*wqk)
				}
				// Accumulate the eigenvector rotation.
				for k := 0; k < n; k++ {
					qkp, qkq := q.At(k, p), q.At(k, r)
					q.Set(k, p, c*qkp-s*qkq)
					q.Set(k, r, s*qkp+c*qkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	outVals := make([]float64, n)
	outVecs := NewMat(n, n)
	for j, src := range idx {
		outVals[j] = vals[src]
		copy(outVecs.Col(j), q.Col(src))
	}
	return EigResult{Values: outVals, Vectors: outVecs}, nil
}
