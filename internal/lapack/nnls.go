package lapack

import (
	"fmt"
	"math"
)

// NNLS solves min ||A·x - b||₂ subject to x >= 0 with the Lawson-Hanson
// active-set algorithm — the non-negative least squares the paper lists
// among required spectrum-processing primitives (§2.2).
func NNLS(a Mat, b []float64) ([]float64, error) {
	if len(b) != a.M {
		return nil, fmt.Errorf("%w: rhs length %d for %d rows", errShape, len(b), a.M)
	}
	m, n := a.M, a.N
	x := make([]float64, n)
	passive := make([]bool, n) // the active-set bookkeeping: true = unconstrained
	// w = Aᵀ(b - A·x), the dual/gradient vector.
	w := make([]float64, n)
	resid := append([]float64(nil), b...)

	computeW := func() {
		for j := 0; j < n; j++ {
			if passive[j] {
				w[j] = 0
				continue
			}
			col := a.Col(j)
			s := 0.0
			for i := 0; i < m; i++ {
				s += col[i] * resid[i]
			}
			w[j] = s
		}
	}
	updateResid := func() {
		copy(resid, b)
		for j := 0; j < n; j++ {
			if x[j] == 0 {
				continue
			}
			col := a.Col(j)
			for i := 0; i < m; i++ {
				resid[i] -= x[j] * col[i]
			}
		}
	}

	const maxOuter = 3 * 64
	tol := 1e-12 * norm2(b) * float64(n)
	for outer := 0; outer < maxOuter+3*n; outer++ {
		computeW()
		// Pick the most violated constraint.
		best, bestW := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			return x, nil // KKT satisfied
		}
		passive[best] = true
		for {
			// Solve the unconstrained problem on the passive set.
			cols := make([]int, 0, n)
			for j := 0; j < n; j++ {
				if passive[j] {
					cols = append(cols, j)
				}
			}
			sub := NewMat(m, len(cols))
			for c, j := range cols {
				copy(sub.Col(c), a.Col(j))
			}
			z, err := LeastSquares(sub, b)
			if err != nil {
				// Degenerate subproblem: drop the newest column and stop
				// considering it this round.
				passive[best] = false
				x[best] = 0
				break
			}
			negative := false
			for c := range cols {
				if z[c] <= 0 {
					negative = true
					break
				}
			}
			if !negative {
				for j := range x {
					x[j] = 0
				}
				for c, j := range cols {
					x[j] = z[c]
				}
				updateResid()
				break
			}
			// Step toward z only as far as feasibility allows, then move
			// newly-zero variables back to the active set.
			alpha := math.Inf(1)
			for c, j := range cols {
				if z[c] <= 0 {
					if step := x[j] / (x[j] - z[c]); step < alpha {
						alpha = step
					}
				}
			}
			for c, j := range cols {
				x[j] += alpha * (z[c] - x[j])
				if x[j] <= 1e-14 {
					x[j] = 0
					passive[j] = false
				}
			}
		}
	}
	return x, nil
}
