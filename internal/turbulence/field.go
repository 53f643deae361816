// Package turbulence reproduces the paper's §2.1 use case: a turbulence
// database that stores a simulation's regular-grid velocity+pressure
// field as blobs of (cube+2·ghost)³ sub-cubes partitioned along a Morton
// z-curve, and serves point interpolation queries ("the equivalent of
// placing small sensors into the simulation instead of downloading all
// the data").
//
// The JHU 1024³ isotropic dataset is proprietary-scale; GenerateField
// synthesizes a divergence-free band-limited velocity field from random
// Fourier modes with a Kolmogorov-like k^(-5/3) energy spectrum, which
// exercises the identical storage and query paths (see DESIGN.md,
// substitution table).
package turbulence

import (
	"fmt"
	"math"
	"math/rand"
)

// Field is one snapshot: three velocity components and pressure on an
// N³ periodic grid, column-major (x fastest), matching §2.1 ("every
// point contains the three components of the fluid velocity and the
// pressure").
type Field struct {
	N          int
	U, V, W, P []float64
}

// Channels is the number of stored per-point quantities: four, u, v
// and w interleaved in a cube's blob column and p in its p column.
const Channels = 4

// GenerateField synthesizes a periodic, divergence-free velocity field
// plus a pressure field on an n³ grid from nModes random Fourier modes
// whose amplitudes follow E(k) ∝ k^(-5/3).
func GenerateField(n int, nModes int, seed int64) (*Field, error) {
	if n < 4 {
		return nil, fmt.Errorf("turbulence: grid side %d too small", n)
	}
	if nModes < 1 {
		return nil, fmt.Errorf("turbulence: need at least one mode")
	}
	rng := rand.New(rand.NewSource(seed))
	type mode struct {
		k      [3]float64 // wave vector (integer cycles per box)
		dir    [3]float64 // polarization, perpendicular to k
		amp    float64
		phase  float64
		pamp   float64 // pressure amplitude
		pphase float64
	}
	modes := make([]mode, 0, nModes)
	maxK := n / 3 // keep the field resolvable on the grid
	if maxK < 2 {
		maxK = 2
	}
	for len(modes) < nModes {
		kx := float64(rng.Intn(2*maxK+1) - maxK)
		ky := float64(rng.Intn(2*maxK+1) - maxK)
		kz := float64(rng.Intn(2*maxK+1) - maxK)
		k2 := kx*kx + ky*ky + kz*kz
		if k2 == 0 {
			continue
		}
		kmag := math.Sqrt(k2)
		// Random unit vector, projected perpendicular to k so the mode
		// is divergence-free (incompressible flow).
		rx, ry, rz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		dot := (rx*kx + ry*ky + rz*kz) / k2
		dx, dy, dz := rx-dot*kx, ry-dot*ky, rz-dot*kz
		dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if dn < 1e-9 {
			continue
		}
		// E(k) ~ k^(-5/3) => per-mode amplitude ~ k^(-5/6 - 1) in 3-D
		// (shell surface absorbs k²); the exact constant is irrelevant
		// for the storage experiments.
		amp := math.Pow(kmag, -11.0/6.0)
		modes = append(modes, mode{
			k:      [3]float64{kx, ky, kz},
			dir:    [3]float64{dx / dn, dy / dn, dz / dn},
			amp:    amp,
			phase:  rng.Float64() * 2 * math.Pi,
			pamp:   amp * amp,
			pphase: rng.Float64() * 2 * math.Pi,
		})
	}
	f := &Field{
		N: n,
		U: make([]float64, n*n*n),
		V: make([]float64, n*n*n),
		W: make([]float64, n*n*n),
		P: make([]float64, n*n*n),
	}
	twoPi := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				var u, v, w, p float64
				for _, m := range modes {
					arg := twoPi*(m.k[0]*float64(x)+m.k[1]*float64(y)+m.k[2]*float64(z)) + m.phase
					c := math.Cos(arg)
					u += m.amp * m.dir[0] * c
					v += m.amp * m.dir[1] * c
					w += m.amp * m.dir[2] * c
					p += m.pamp * math.Cos(arg-m.phase+m.pphase)
				}
				f.U[base+x] = u
				f.V[base+x] = v
				f.W[base+x] = w
				f.P[base+x] = p
			}
		}
	}
	return f, nil
}

// At returns (u, v, w, p) at integer grid coordinates, periodic.
func (f *Field) At(x, y, z int) (u, v, w, p float64) {
	n := f.N
	x, y, z = wrap(x, n), wrap(y, n), wrap(z, n)
	i := (z*n+y)*n + x
	return f.U[i], f.V[i], f.W[i], f.P[i]
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// divergence computes the discrete central-difference divergence at a
// grid point — used by tests to verify the synthetic field is
// (approximately) incompressible.
func (f *Field) divergence(x, y, z int) float64 {
	ux1, _, _, _ := f.At(x+1, y, z)
	ux0, _, _, _ := f.At(x-1, y, z)
	_, vy1, _, _ := f.At(x, y+1, z)
	_, vy0, _, _ := f.At(x, y-1, z)
	_, _, wz1, _ := f.At(x, y, z+1)
	_, _, wz0, _ := f.At(x, y, z-1)
	return (ux1 - ux0 + vy1 - vy0 + wz1 - wz0) / 2
}
