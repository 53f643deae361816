package lapack

import (
	"fmt"
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ
// of an m×n matrix with m >= n: U is m×n with orthonormal columns, S has
// the n singular values in descending order, V is n×n orthogonal.
type SVDResult struct {
	U Mat
	S []float64
	V Mat
}

// SVD computes the decomposition with the one-sided Jacobi method
// (Hestenes): plane rotations orthogonalize the columns of a working
// copy of A; the resulting column norms are the singular values. This is
// the library's *gesvd stand-in — slower than bidiagonalization but
// robustly accurate, which matters more than speed at the array sizes
// the paper's spectra workloads use (§2.2 PCA over spectra).
//
// Matrices with m < n are handled by decomposing the transpose and
// swapping U and V.
func SVD(a Mat) (SVDResult, error) {
	if a.M == 0 || a.N == 0 {
		return SVDResult{}, fmt.Errorf("%w: empty matrix", errShape)
	}
	if a.M < a.N {
		r, err := SVD(a.Transpose())
		if err != nil {
			return SVDResult{}, err
		}
		return SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}
	m, n := a.M, a.N
	u := a.Clone()
	v := identity(n)

	const maxSweeps = 60
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := u.Col(p), u.Col(q)
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					alpha += cp[i] * cp[i]
					beta += cq[i] * cq[i]
					gamma += cp[i] * cq[i]
				}
				if math.Abs(gamma) > eps*math.Sqrt(alpha*beta) {
					off += gamma * gamma
					// Jacobi rotation zeroing the (p,q) off-diagonal of AᵀA.
					zeta := (beta - alpha) / (2 * gamma)
					t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					for i := 0; i < m; i++ {
						up := cp[i]
						cp[i] = c*up - s*cq[i]
						cq[i] = s*up + c*cq[i]
					}
					vp, vq := v.Col(p), v.Col(q)
					for i := 0; i < n; i++ {
						tp := vp[i]
						vp[i] = c*tp - s*vq[i]
						vq[i] = s*tp + c*vq[i]
					}
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Column norms are the singular values; normalize U's columns.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		col := u.Col(j)
		s[j] = norm2(col)
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := range col {
				col[i] *= inv
			}
		}
	}
	// Sort descending, permuting U and V columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })
	us, vs, ss := NewMat(m, n), NewMat(n, n), make([]float64, n)
	for j, src := range idx {
		copy(us.Col(j), u.Col(src))
		copy(vs.Col(j), v.Col(src))
		ss[j] = s[src]
	}
	return SVDResult{U: us, S: ss, V: vs}, nil
}

// Reconstruct returns U·diag(S)·Vᵀ, for validation.
func (r SVDResult) Reconstruct() Mat {
	m, n := r.U.M, r.V.M
	out := NewMat(m, n)
	for j := 0; j < n; j++ {
		oc := out.Col(j)
		for k := 0; k < len(r.S); k++ {
			f := r.S[k] * r.V.At(j, k)
			if f == 0 {
				continue
			}
			uc := r.U.Col(k)
			for i := 0; i < m; i++ {
				oc[i] += f * uc[i]
			}
		}
	}
	return out
}

// SingularValues returns just the singular values of A.
func SingularValues(a Mat) ([]float64, error) {
	r, err := SVD(a)
	if err != nil {
		return nil, err
	}
	return r.S, nil
}
