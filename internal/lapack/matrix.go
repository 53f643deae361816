// Package lapack is the library's LAPACK substitute: dense linear algebra
// kernels over column-major float64 buffers — precisely the element order
// of sqlarray blobs (§3.5 of the paper: "array items are consecutively
// stored in a column major order commonly used by math libraries written
// in FORTRAN such as LAPACK"), so an array payload converts to a matrix
// argument with a single bulk copy and no transposition.
//
// Provided: matrix products, Householder QR, one-sided Jacobi SVD (the
// paper's *gesvd stand-in), a symmetric Jacobi eigensolver, linear least
// squares (optionally masked), and Lawson-Hanson non-negative least
// squares (§2.2: "certain spectrum processing operations also require
// non-negative least squares fitting").
package lapack

import (
	"errors"
	"fmt"
	"math"
)

// errShape reports inconsistent matrix dimensions.
var errShape = errors.New("lapack: shape mismatch")

// errSingular reports a rank-deficient system where a unique solution was
// required.
var errSingular = errors.New("lapack: singular system")

// Mat is a dense column-major matrix view: element (i,j) of an m×n matrix
// lives at Data[i+j*m].
type Mat struct {
	M, N int
	Data []float64
}

// NewMat allocates a zero m×n matrix.
func NewMat(m, n int) Mat { return Mat{M: m, N: n, Data: make([]float64, m*n)} }

// MatFrom wraps an existing column-major buffer.
func MatFrom(m, n int, data []float64) (Mat, error) {
	if len(data) != m*n {
		return Mat{}, fmt.Errorf("%w: %d elements for %dx%d", errShape, len(data), m, n)
	}
	return Mat{M: m, N: n, Data: data}, nil
}

// At returns element (i, j).
func (a Mat) At(i, j int) float64 { return a.Data[i+j*a.M] }

// Set stores element (i, j).
func (a Mat) Set(i, j int, v float64) { a.Data[i+j*a.M] = v }

// Col returns column j as a slice aliasing the matrix.
func (a Mat) Col(j int) []float64 { return a.Data[j*a.M : (j+1)*a.M] }

// Clone deep-copies the matrix.
func (a Mat) Clone() Mat {
	return Mat{M: a.M, N: a.N, Data: append([]float64(nil), a.Data...)}
}

// Transpose returns Aᵀ as a new matrix.
func (a Mat) Transpose() Mat {
	t := NewMat(a.N, a.M)
	for j := 0; j < a.N; j++ {
		col := a.Col(j)
		for i := 0; i < a.M; i++ {
			t.Data[j+i*a.N] = col[i]
		}
	}
	return t
}

// MatMul returns C = A·B.
func MatMul(a, b Mat) (Mat, error) {
	if a.N != b.M {
		return Mat{}, fmt.Errorf("%w: %dx%d · %dx%d", errShape, a.M, a.N, b.M, b.N)
	}
	c := NewMat(a.M, b.N)
	for j := 0; j < b.N; j++ {
		bcol := b.Col(j)
		ccol := c.Col(j)
		for k := 0; k < a.N; k++ {
			f := bcol[k]
			if f == 0 {
				continue
			}
			acol := a.Col(k)
			for i := 0; i < a.M; i++ {
				ccol[i] += f * acol[i]
			}
		}
	}
	return c, nil
}

// matVec returns y = A·x.
func matVec(a Mat, x []float64) ([]float64, error) {
	if len(x) != a.N {
		return nil, fmt.Errorf("%w: %dx%d · %d-vector", errShape, a.M, a.N, len(x))
	}
	y := make([]float64, a.M)
	for j := 0; j < a.N; j++ {
		f := x[j]
		if f == 0 {
			continue
		}
		col := a.Col(j)
		for i := range y {
			y[i] += f * col[i]
		}
	}
	return y, nil
}

// norm2 returns the Euclidean norm of x, guarding against overflow.
func norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// identity returns the n×n identity.
func identity(n int) Mat {
	id := NewMat(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	return id
}

// maxAbsDiff returns max |a-b| over all entries (tests use it to verify
// reconstructions).
func maxAbsDiff(a, b Mat) float64 {
	if a.M != b.M || a.N != b.N {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}
