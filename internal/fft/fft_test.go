package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// transform runs a fresh plan of len(src) in direction dir over src.
func transform(t *testing.T, src []complex128, dir Direction) []complex128 {
	t.Helper()
	p, err := NewPlan(len(src), dir)
	if err != nil {
		t.Fatalf("n=%d: %v", len(src), err)
	}
	dst := make([]complex128, len(src))
	if err := p.Execute(dst, src); err != nil {
		t.Fatalf("n=%d: %v", len(src), err)
	}
	return dst
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 32, 100, 128, 243} {
		src := randComplex(rng, n)
		got := transform(t, src, Forward)
		want := dftNaive(src, Forward)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestInverseIsIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 1 + rng.Intn(200)
		src := randComplex(rng, n)
		back := transform(t, transform(t, src, Forward), Inverse)
		return maxErr(src, back) < 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 37, 64, 129} {
		src := randComplex(rng, n)
		freq := transform(t, src, Forward)
		var et, ef float64
		for i := 0; i < n; i++ {
			et += real(src[i])*real(src[i]) + imag(src[i])*imag(src[i])
			ef += real(freq[i])*real(freq[i]) + imag(freq[i])*imag(freq[i])
		}
		if math.Abs(et-ef/float64(n)) > 1e-8*et {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, et, ef/float64(n))
		}
	}
}

func TestPureToneSpectrum(t *testing.T) {
	const n = 64
	const bin = 5
	src := make([]complex128, n)
	for i := range src {
		ang := 2 * math.Pi * bin * float64(i) / n
		src[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	freq := transform(t, src, Forward)
	for k := range freq {
		want := 0.0
		if k == bin {
			want = n
		}
		if math.Abs(cmplx.Abs(freq[k])-want) > 1e-9 {
			t.Errorf("bin %d amplitude = %g, want %g", k, cmplx.Abs(freq[k]), want)
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := make([]complex128, 48)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), 0)
	}
	freq := transform(t, src, Forward)
	n := len(src)
	for k := 1; k < n; k++ {
		if cmplx.Abs(freq[k]-cmplx.Conj(freq[n-k])) > 1e-9 {
			t.Errorf("hermitian symmetry broken at %d", k)
		}
	}
}

func TestPlanReuseAndAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := NewPlan(64, Forward)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		src := randComplex(rng, 64)
		want := dftNaive(src, Forward)
		// In-place execution (dst aliases src).
		if err := p.Execute(src, src); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(src, want); e > 1e-9 {
			t.Errorf("trial %d: in-place error %g", trial, e)
		}
	}
	if err := p.Execute(make([]complex128, 32), make([]complex128, 64)); err == nil {
		t.Error("size mismatch must fail")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, Forward); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := NewPlan(-4, Inverse); err == nil {
		t.Error("negative size must fail")
	}
}

func TestFFTNRoundtrip3D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dims := []int{8, 6, 5}
	n := 8 * 6 * 5
	src := randComplex(rng, n)
	data := append([]complex128(nil), src...)
	if err := FFTN(data, dims, Forward); err != nil {
		t.Fatal(err)
	}
	if err := FFTN(data, dims, Inverse); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, src); e > 1e-9 {
		t.Errorf("3D roundtrip error %g", e)
	}
}

func TestFFTNMatchesPerAxisNaive2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nx, ny := 4, 3
	src := randComplex(rng, nx*ny)
	got := append([]complex128(nil), src...)
	if err := FFTN(got, []int{nx, ny}, Forward); err != nil {
		t.Fatal(err)
	}
	// Naive 2D DFT.
	want := make([]complex128, nx*ny)
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			var sum complex128
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					ang := -2 * math.Pi * (float64(kx*x)/float64(nx) + float64(ky*y)/float64(ny))
					s, c := math.Sincos(ang)
					sum += src[y*nx+x] * complex(c, s)
				}
			}
			want[ky*nx+kx] = sum
		}
	}
	if e := maxErr(got, want); e > 1e-9 {
		t.Errorf("2D error %g", e)
	}
}

func TestFFTAxesSingleAxis(t *testing.T) {
	// With every other axis of length 1, FFTN is the 1-D DFT along the
	// remaining one, whatever its stride in the column-major layout.
	rng := rand.New(rand.NewSource(8))
	for axis := 0; axis < 3; axis++ {
		dims := []int{1, 1, 1}
		dims[axis] = 8
		src := randComplex(rng, 8)
		data := append([]complex128(nil), src...)
		if err := FFTN(data, dims, Forward); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, dftNaive(src, Forward)); e > 1e-9 {
			t.Errorf("dims %v: error %g", dims, e)
		}
	}
	if err := FFTN(make([]complex128, 32), []int{5, 5}, Forward); err == nil {
		t.Error("dims/data mismatch must fail")
	}
	if err := FFTN(make([]complex128, 32), []int{-1}, Forward); err == nil {
		t.Error("negative dim must fail")
	}
}

func TestPowerSpectrumDeltaField(t *testing.T) {
	// A constant field has all its power at k=0.
	const n = 8
	f := make([]complex128, n*n*n)
	for i := range f {
		f[i] = 1
	}
	if err := FFTN(f, []int{n, n, n}, Forward); err != nil {
		t.Fatal(err)
	}
	p, counts, err := PowerSpectrum3D(f, n)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] == 0 {
		t.Error("k=0 power must be non-zero for constant field")
	}
	for k := 1; k < len(p); k++ {
		if p[k] > 1e-12 {
			t.Errorf("k=%d power = %g, want 0", k, p[k])
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total > n*n*n {
		t.Errorf("binned %d modes out of %d", total, n*n*n)
	}
	if _, _, err := PowerSpectrum3D(f, n+1); err == nil {
		t.Error("size mismatch must fail")
	}
}

func TestPowerSpectrumSingleMode(t *testing.T) {
	const n = 16
	f := make([]complex128, n*n*n)
	// A plane wave along x with |k|=3.
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				ang := 2 * math.Pi * 3 * float64(x) / n
				f[(z*n+y)*n+x] = complex(math.Cos(ang), 0)
			}
		}
	}
	if err := FFTN(f, []int{n, n, n}, Forward); err != nil {
		t.Fatal(err)
	}
	p, _, err := PowerSpectrum3D(f, n)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for k := 1; k < len(p); k++ {
		if p[k] > p[peak] {
			peak = k
		}
	}
	if peak != 3 {
		t.Errorf("power peak at k=%d, want 3", peak)
	}
}
