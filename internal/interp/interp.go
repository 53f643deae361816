// Package interp implements the interpolation kernels the paper's
// turbulence service exposes (§2.1): nearest point, linear, PCHIP and
// 4/6/8-point Lagrangian schemes as tensor products over 3-D periodic
// grids — the "convolve an 8³ neighborhood with an 8³ interpolation
// kernel" operation.
package interp

import (
	"fmt"
	"math"
)

// Scheme selects an interpolation method.
type Scheme uint8

// Supported schemes; LagN uses N points (N/2 on each side).
const (
	Nearest Scheme = iota
	Linear
	PCHIP
	Lag4
	Lag6
	Lag8
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Nearest:
		return "nearest"
	case Linear:
		return "linear"
	case PCHIP:
		return "pchip"
	case Lag4:
		return "lag4"
	case Lag6:
		return "lag6"
	case Lag8:
		return "lag8"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Points returns the stencil width of the scheme.
func (s Scheme) Points() int {
	switch s {
	case Nearest:
		return 1
	case Linear:
		return 2
	case PCHIP, Lag4:
		return 4
	case Lag6:
		return 6
	case Lag8:
		return 8
	}
	return 0
}

// lagrangeWeights fills w with the Lagrange basis values for np stencil
// points at offsets (-np/2+1 .. np/2) relative to the base index, for a
// fractional position t in [0,1) between points np/2-1 and np/2.
func lagrangeWeights(np int, t float64, w []float64) {
	// Node positions: x_k = k - (np/2 - 1), so t lives between node
	// np/2-1 (x=0) and node np/2 (x=1).
	for k := 0; k < np; k++ {
		xk := float64(k - (np/2 - 1))
		num, den := 1.0, 1.0
		for j := 0; j < np; j++ {
			if j == k {
				continue
			}
			xj := float64(j - (np/2 - 1))
			num *= t - xj
			den *= xk - xj
		}
		w[k] = num / den
	}
}

// Grid3D is a scalar field sampled on an N³ periodic lattice in
// column-major order (x fastest), the in-memory form of a turbulence
// blob component.
type Grid3D struct {
	N    int
	Data []float64
}

// NewGrid3D wraps data as an n³ field.
func NewGrid3D(n int, data []float64) (*Grid3D, error) {
	if len(data) != n*n*n {
		return nil, fmt.Errorf("interp: %d samples for %d^3 grid", len(data), n)
	}
	return &Grid3D{N: n, Data: data}, nil
}

// At returns the sample at integer coordinates, wrapped periodically.
func (g *Grid3D) At(x, y, z int) float64 {
	n := g.N
	x, y, z = wrapIdx(x, n), wrapIdx(y, n), wrapIdx(z, n)
	return g.Data[(z*n+y)*n+x]
}

func wrapIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Sample interpolates the field at a real position (in grid units) with
// a tensor-product stencil: weights along each axis multiply, so an
// 8-point scheme convolves an 8³ neighborhood exactly as §2.1 describes.
func (g *Grid3D) Sample(x, y, z float64, scheme Scheme) float64 {
	if scheme == Nearest {
		return g.At(int(math.Round(x)), int(math.Round(y)), int(math.Round(z)))
	}
	np := scheme.Points()
	ix, tx := splitFrac(x, g.N)
	iy, ty := splitFrac(y, g.N)
	iz, tz := splitFrac(z, g.N)
	var wx, wy, wz [8]float64
	AxisWeights(scheme, tx, wx[:np])
	AxisWeights(scheme, ty, wy[:np])
	AxisWeights(scheme, tz, wz[:np])
	base := np/2 - 1
	s := 0.0
	for kz := 0; kz < np; kz++ {
		wzk := wz[kz]
		if wzk == 0 {
			continue
		}
		for ky := 0; ky < np; ky++ {
			wyk := wy[ky] * wzk
			if wyk == 0 {
				continue
			}
			for kx := 0; kx < np; kx++ {
				s += wx[kx] * wyk * g.At(ix-base+kx, iy-base+ky, iz-base+kz)
			}
		}
	}
	return s
}

// AxisWeights fills w (len scheme.Points()) with the per-axis stencil
// weights of a non-nearest scheme at fractional offset t in [0,1); the
// 3-D kernel is their tensor product. PCHIP is not separable in general,
// so its tensor form uses the Lagrange-4 weights as a surrogate (the
// turbulence DB's PCHIP is likewise a per-axis construction).
func AxisWeights(scheme Scheme, t float64, w []float64) {
	switch scheme {
	case Linear:
		w[0], w[1] = 1-t, t
	case PCHIP, Lag4:
		lagrangeWeights(4, t, w)
	case Lag6:
		lagrangeWeights(6, t, w)
	case Lag8:
		lagrangeWeights(8, t, w)
	}
}

func splitFrac(x float64, n int) (int, float64) {
	xw := math.Mod(x, float64(n))
	if xw < 0 {
		xw += float64(n)
	}
	i := int(math.Floor(xw))
	return i, xw - float64(i)
}
