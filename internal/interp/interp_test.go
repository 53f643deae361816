package interp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSchemeMetadata(t *testing.T) {
	cases := []struct {
		s      Scheme
		points int
	}{{Nearest, 1}, {Linear, 2}, {PCHIP, 4}, {Lag4, 4}, {Lag6, 6}, {Lag8, 8}}
	for _, c := range cases {
		if c.s.Points() != c.points {
			t.Errorf("%v.Points() = %d, want %d", c.s, c.s.Points(), c.points)
		}
		if c.s.String() == "" {
			t.Errorf("%v has empty name", c.s)
		}
	}
}

func TestLagrangeWeightsPartitionOfUnity(t *testing.T) {
	for _, np := range []int{4, 6, 8} {
		for _, tt := range []float64{0, 0.25, 0.5, 0.9} {
			w := make([]float64, np)
			lagrangeWeights(np, tt, w)
			sum := 0.0
			for _, v := range w {
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("np=%d t=%g: weights sum to %g", np, tt, sum)
			}
		}
	}
}

// gridOf samples f on an n³ lattice at integer coordinates.
func gridOf(t *testing.T, n int, f func(x, y, z float64) float64) *Grid3D {
	t.Helper()
	data := make([]float64, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				data[(z*n+y)*n+x] = f(float64(x), float64(y), float64(z))
			}
		}
	}
	g, err := NewGrid3D(n, data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInterpolationExactAtNodes(t *testing.T) {
	// Every scheme, PCHIP's Lagrange-4 surrogate included, returns the
	// sample itself at every node.
	rng := rand.New(rand.NewSource(1))
	n := 8
	g := gridOf(t, n, func(_, _, _ float64) float64 { return rng.NormFloat64() })
	for _, s := range []Scheme{Nearest, Linear, PCHIP, Lag4, Lag6, Lag8} {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					got := g.Sample(float64(x), float64(y), float64(z), s)
					if want := g.At(x, y, z); math.Abs(got-want) > 1e-12 {
						t.Errorf("%v at (%d,%d,%d): %g, want %g", s, x, y, z, got, want)
					}
				}
			}
		}
	}
}

func TestPolynomialReproduction(t *testing.T) {
	// A degree-(np-1) Lagrange stencil reproduces polynomials of that
	// degree exactly, and the tensor product does so per axis. Use a
	// cubic in each coordinate plus a trilinear cross term, sampled at
	// interior points where no stencil wraps.
	cubic := func(x float64) float64 { return 0.5 + 0.25*x + 0.1*x*x - 0.002*x*x*x }
	f := func(x, y, z float64) float64 { return cubic(x) + 0.5*cubic(y) - 0.25*cubic(z) + 1e-3*x*y*z }
	g := gridOf(t, 32, f)
	for _, s := range []Scheme{Lag4, Lag6, Lag8} {
		for _, p := range [][3]float64{{10.3, 15.75, 20.5}, {12.5, 12.5, 12.5}, {20.9, 11.1, 16.4}} {
			got := g.Sample(p[0], p[1], p[2], s)
			want := f(p[0], p[1], p[2])
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%v at %v: %g, want %g", s, p, got, want)
			}
		}
	}
}

func TestHigherOrderConvergesOnSmoothSignal(t *testing.T) {
	// Interpolating a periodic sine off-grid: error(Lag8) < error(Lag4)
	// < error(Linear).
	n := 32
	k := 2 * math.Pi / float64(n)
	f := func(x, y, z float64) float64 { return math.Sin(k*x) + math.Cos(k*y)*math.Sin(k*z) }
	g := gridOf(t, n, f)
	maxErrFor := func(s Scheme) float64 {
		worst := 0.0
		for i := 0; i < 200; i++ {
			x := float64(i) * float64(n) / 200
			y, z := 0.37*x, float64(n)-0.61*x
			if e := math.Abs(g.Sample(x, y, z, s) - f(x, y, z)); e > worst {
				worst = e
			}
		}
		return worst
	}
	eLin, e4, e8 := maxErrFor(Linear), maxErrFor(Lag4), maxErrFor(Lag8)
	if !(e8 < e4 && e4 < eLin) {
		t.Errorf("errors not ordered: linear %g, lag4 %g, lag8 %g", eLin, e4, e8)
	}
}

func TestPeriodicWrapping(t *testing.T) {
	// One period later or earlier on any axis samples the same point,
	// and so do stencils that straddle the lattice edge.
	n := 4
	g := gridOf(t, n, func(x, y, z float64) float64 { return x + 2*y*y - z })
	for _, s := range []Scheme{Linear, Lag4, PCHIP, Lag8} {
		a := g.Sample(0.5, 3.25, 1.75, s)
		b := g.Sample(4.5, -0.75, 5.75, s)   // one period later/earlier per axis
		c := g.Sample(-3.5, 7.25, -10.25, s) // several periods away
		if math.Abs(a-b) > 1e-12 || math.Abs(a-c) > 1e-12 {
			t.Errorf("%v: wrap mismatch %g / %g / %g", s, a, b, c)
		}
	}
}

func TestGrid3DSampleExactAtNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 8
	data := make([]float64, n*n*n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	g, err := NewGrid3D(n, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{Nearest, Linear, Lag4, Lag6, Lag8} {
		for trial := 0; trial < 20; trial++ {
			x, y, z := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			got := g.Sample(float64(x), float64(y), float64(z), s)
			want := g.At(x, y, z)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%v at (%d,%d,%d): %g, want %g", s, x, y, z, got, want)
			}
		}
	}
	if _, err := NewGrid3D(3, data); err == nil {
		t.Error("bad grid size must fail")
	}
}

func TestGrid3DTrilinearKnown(t *testing.T) {
	// f(x,y,z) = x + 10y + 100z is trilinear: Linear sampling is exact.
	g := gridOf(t, 4, func(x, y, z float64) float64 { return x + 10*y + 100*z })
	got := g.Sample(1.5, 0.25, 2.75, Linear)
	want := 1.5 + 10*0.25 + 100*2.75
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("trilinear = %g, want %g", got, want)
	}
}

func TestGrid3DSmoothFieldAccuracy(t *testing.T) {
	// An 8-point kernel on a band-limited field: error far below linear.
	n := 16
	f := func(x, y, z float64) float64 {
		k := 2 * math.Pi / float64(n)
		return math.Sin(k*x)*math.Cos(2*k*y) + 0.5*math.Sin(k*z)
	}
	g := gridOf(t, n, f)
	rng := rand.New(rand.NewSource(3))
	var eLin, e8 float64
	for trial := 0; trial < 100; trial++ {
		x := rng.Float64() * float64(n)
		y := rng.Float64() * float64(n)
		z := rng.Float64() * float64(n)
		want := f(x, y, z)
		if e := math.Abs(g.Sample(x, y, z, Linear) - want); e > eLin {
			eLin = e
		}
		if e := math.Abs(g.Sample(x, y, z, Lag8) - want); e > e8 {
			e8 = e
		}
	}
	if e8 > eLin/10 {
		t.Errorf("Lag8 error %g not clearly better than linear %g", e8, eLin)
	}
}
