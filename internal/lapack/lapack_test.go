package lapack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, m, n int) Mat {
	a := NewMat(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func TestMatBasics(t *testing.T) {
	a, err := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6}) // columns (1,2) (3,4) (5,6)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 2 || a.At(0, 2) != 5 {
		t.Errorf("column-major indexing wrong: %v", a.Data)
	}
	a.Set(1, 1, 9)
	if a.At(1, 1) != 9 {
		t.Error("Set failed")
	}
	if _, err := MatFrom(2, 2, []float64{1}); err == nil {
		t.Error("bad MatFrom must fail")
	}
	tr := a.Transpose()
	if tr.M != 3 || tr.N != 2 || tr.At(2, 0) != 5 || tr.At(1, 1) != 9 {
		t.Errorf("transpose wrong: %+v", tr)
	}
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Error("Clone must not share storage")
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 6)
	id := identity(6)
	c, err := MatMul(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, c) > 1e-15 {
		t.Error("A·I != A")
	}
	if _, err := MatMul(a, randMat(rng, 5, 2)); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := MatFrom(2, 2, []float64{1, 3, 2, 4}) // [[1,2],[3,4]]
	b, _ := MatFrom(2, 2, []float64{5, 7, 6, 8}) // [[5,6],[7,8]]
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 43, 22, 50} // [[19,22],[43,50]] column-major
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-14 {
			t.Errorf("C[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatVec(t *testing.T) {
	a, _ := MatFrom(2, 3, []float64{1, 4, 2, 5, 3, 6}) // [[1,2,3],[4,5,6]]
	y, err := matVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("y = %v", y)
	}
	if _, err := matVec(a, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestNorm2Robust(t *testing.T) {
	if got := norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Errorf("norm2 = %g", got)
	}
	// Values that would overflow naive sum-of-squares.
	big := []float64{1e300, 1e300}
	if got := norm2(big); math.IsInf(got, 1) || math.Abs(got-1e300*math.Sqrt2) > 1e285 {
		t.Errorf("overflow-safe norm2 = %g", got)
	}
	if norm2(nil) != 0 {
		t.Error("empty norm must be 0")
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square well-conditioned system.
	a, _ := MatFrom(3, 3, []float64{4, 1, 0, 1, 3, 1, 0, 1, 2})
	want := []float64{1, -2, 3}
	b, _ := matVec(a, want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t to noiseless samples: residual 0, exact recovery.
	m := 20
	a := NewMat(m, 2)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		ti := float64(i) / 4
		a.Set(i, 0, 1)
		a.Set(i, 1, ti)
		b[i] = 2 + 3*ti
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("fit = %v", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		m := 5 + rng.Intn(20)
		n := 1 + rng.Intn(4)
		a := randMat(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; acceptable
		}
		ax, _ := matVec(a, x)
		// Residual must be orthogonal to every column of A.
		for j := 0; j < n; j++ {
			s := 0.0
			col := a.Col(j)
			for i := 0; i < m; i++ {
				s += col[i] * (b[i] - ax[i])
			}
			if math.Abs(s) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQRErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := qrFactor(randMat(rng, 2, 5)); err == nil {
		t.Error("m < n must fail")
	}
	f, err := qrFactor(randMat(rng, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("rhs length mismatch must fail")
	}
	// Singular matrix: duplicate columns.
	a := NewMat(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, float64(i))
	}
	if _, err := LeastSquares(a, []float64{1, 2, 3, 4}); err == nil {
		t.Error("singular system must fail")
	}
}

func TestMaskedLeastSquares(t *testing.T) {
	// Fit a constant; one wildly wrong sample is masked out.
	m := 10
	a := NewMat(m, 1)
	b := make([]float64, m)
	mask := make([]int64, m)
	for i := 0; i < m; i++ {
		a.Set(i, 0, 1)
		b[i] = 5
	}
	b[3] = 1e6
	mask[3] = 1
	x, err := MaskedLeastSquares(a, b, mask)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-10 {
		t.Errorf("masked fit = %g, want 5", x[0])
	}
	// Without the mask the outlier drags the fit.
	x2, _ := LeastSquares(a, b)
	if x2[0] < 1000 {
		t.Errorf("unmasked fit = %g, should be polluted", x2[0])
	}
	// Too few surviving rows.
	all := make([]int64, m)
	for i := range all {
		all[i] = 1
	}
	if _, err := MaskedLeastSquares(a, b, all); err == nil {
		t.Error("fully masked system must fail")
	}
	if _, err := MaskedLeastSquares(a, b, mask[:2]); err == nil {
		t.Error("mask length mismatch must fail")
	}
}

func TestSVDReconstructsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		m := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		a := randMat(rng, m, n)
		r, err := SVD(a)
		if err != nil {
			return false
		}
		if maxAbsDiff(r.Reconstruct(), a) > 1e-9 {
			return false
		}
		// Singular values descending and non-negative.
		for i := 1; i < len(r.S); i++ {
			if r.S[i] > r.S[i-1]+1e-12 || r.S[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDOrthonormality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 10, 6)
	r, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	utu, _ := MatMul(r.U.Transpose(), r.U)
	if maxAbsDiff(utu, identity(6)) > 1e-9 {
		t.Error("UᵀU != I")
	}
	vtv, _ := MatMul(r.V.Transpose(), r.V)
	if maxAbsDiff(vtv, identity(6)) > 1e-9 {
		t.Error("VᵀV != I")
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values 3, 2.
	a := NewMat(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	s, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Errorf("S = %v", s)
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 3, 8)
	r, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(r.Reconstruct(), a) > 1e-9 {
		t.Error("wide-matrix reconstruction failed")
	}
	if _, err := SVD(Mat{}); err == nil {
		t.Error("empty SVD must fail")
	}
}

func TestRank(t *testing.T) {
	// The SVD of a rank-deficient matrix shows its numerical rank: a
	// rank-1 outer product has one singular value above 1e-10·σ₁, and a
	// zero matrix has none.
	a := NewMat(5, 4)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	s, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 4 || s[0] == 0 {
		t.Fatalf("singular values = %v", s)
	}
	for k, v := range s[1:] {
		if v > 1e-10*s[0] {
			t.Errorf("rank-1 matrix: σ%d = %g above tolerance", k+2, v)
		}
	}
	z, err := SingularValues(NewMat(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range z {
		if v != 0 {
			t.Errorf("zero matrix: σ%d = %g", k+1, v)
		}
	}
}

func TestSymEig(t *testing.T) {
	// Known symmetric matrix [[2,1],[1,2]]: eigenvalues 3 and 1.
	a, _ := MatFrom(2, 2, []float64{2, 1, 1, 2})
	r, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Values[0]-3) > 1e-10 || math.Abs(r.Values[1]-1) > 1e-10 {
		t.Errorf("eigenvalues = %v", r.Values)
	}
	// A·q = λ·q for each pair.
	for j := 0; j < 2; j++ {
		q := r.Vectors.Col(j)
		aq, _ := matVec(a, q)
		for i := range aq {
			if math.Abs(aq[i]-r.Values[j]*q[i]) > 1e-10 {
				t.Errorf("eigenpair %d violated", j)
			}
		}
	}
	if _, err := SymEig(NewMat(2, 3)); err == nil {
		t.Error("non-square must fail")
	}
}

func TestSymEigRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	r, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct Q·diag(λ)·Qᵀ.
	qd := NewMat(n, n)
	for j := 0; j < n; j++ {
		col := r.Vectors.Col(j)
		for i := 0; i < n; i++ {
			qd.Set(i, j, col[i]*r.Values[j])
		}
	}
	back, _ := MatMul(qd, r.Vectors.Transpose())
	if maxAbsDiff(back, a) > 1e-8 {
		t.Errorf("eigen reconstruction error %g", maxAbsDiff(back, a))
	}
	// Trace preserved.
	tr, sum := 0.0, 0.0
	for i := 0; i < n; i++ {
		tr += a.At(i, i)
		sum += r.Values[i]
	}
	if math.Abs(tr-sum) > 1e-9 {
		t.Errorf("trace %g != eigensum %g", tr, sum)
	}
}

func TestNNLSNonNegativity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		m := 6 + rng.Intn(10)
		n := 1 + rng.Intn(5)
		a := randMat(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: x[%d] = %g < 0", trial, j, v)
			}
		}
		// KKT: for x_j > 0, gradient ~ 0; for x_j = 0, gradient <= 0.
		ax, _ := matVec(a, x)
		for j := 0; j < n; j++ {
			g := 0.0
			col := a.Col(j)
			for i := 0; i < m; i++ {
				g += col[i] * (b[i] - ax[i])
			}
			if x[j] > 1e-10 && math.Abs(g) > 1e-6 {
				t.Fatalf("trial %d: active gradient %g at %d", trial, g, j)
			}
			if x[j] == 0 && g > 1e-6 {
				t.Fatalf("trial %d: violated constraint gradient %g at %d", trial, g, j)
			}
		}
	}
}

func TestNNLSRecoversNonNegativeTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n := 30, 4
	a := randMat(rng, m, n)
	want := []float64{0.5, 0, 2, 1}
	b, _ := matVec(a, want)
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(x[j]-want[j]) > 1e-8 {
			t.Errorf("x[%d] = %g, want %g", j, x[j], want[j])
		}
	}
	if _, err := NNLS(a, []float64{1}); err == nil {
		t.Error("rhs mismatch must fail")
	}
}
