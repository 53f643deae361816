package kdtree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		pts[i] = Point{Coords: c, ID: int64(i)}
	}
	return pts
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("zero dim must fail")
	}
	if _, err := Build([]Point{{Coords: []float64{1}}}, 2); !errors.Is(err, errDim) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := Build(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5} {
		ns, err := tr.KNN([]float64{0, 0, 0}, k)
		if err != nil || ns != nil {
			t.Errorf("KNN(k=%d) on empty = %v, %v", k, ns, err)
		}
	}
	if _, err := tr.KNN([]float64{0, 0}, 1); !errors.Is(err, errDim) {
		t.Errorf("dim mismatch on empty: %v", err)
	}
}

func TestKNNMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(300)
		dim := 1 + rng.Intn(5)
		pts := randPoints(rng, n, dim)
		ref := make([]Point, len(pts))
		copy(ref, pts)
		tr, err := Build(pts, dim)
		if err != nil {
			return false
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(10)
		got, err := tr.KNN(q, k)
		if err != nil {
			return false
		}
		want := bruteKNN(ref, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Compare distances (ties may reorder IDs).
			if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 500, 3)
	target := pts[123]
	tr, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := tr.KNN(target.Coords, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].Dist2 != 0 || ns[0].Point.ID != target.ID {
		t.Errorf("KNN(k=1) = %+v, want exact point %d", ns, target.ID)
	}
}

func TestKNNSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := Build(randPoints(rng, 200, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := tr.KNN([]float64{0.5, -0.2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 20 {
		t.Fatalf("got %d neighbors", len(ns))
	}
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i].Dist2 < ns[j].Dist2 }) {
		t.Error("KNN result not sorted")
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, _ := Build(randPoints(rng, 5, 2), 2)
	ns, err := tr.KNN([]float64{0, 0}, 50)
	if err != nil || len(ns) != 5 {
		t.Errorf("KNN(50 of 5) = %d, %v", len(ns), err)
	}
	if _, err := tr.KNN([]float64{0}, 3); !errors.Is(err, errDim) {
		t.Errorf("dim mismatch: %v", err)
	}
	if ns, _ := tr.KNN([]float64{0, 0}, 0); ns != nil {
		t.Error("k=0 must return nothing")
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []Point{
		{Coords: []float64{1, 1}, ID: 1},
		{Coords: []float64{1, 1}, ID: 2},
		{Coords: []float64{1, 1}, ID: 3},
		{Coords: []float64{2, 2}, ID: 4},
	}
	tr, err := Build(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := tr.KNN([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if n.Dist2 != 0 {
			t.Errorf("duplicate point at distance %g", n.Dist2)
		}
	}
}

func TestHighDimensional(t *testing.T) {
	// PCA coefficient spaces are ~5-20 dimensional (§2.2).
	rng := rand.New(rand.NewSource(6))
	dim := 15
	pts := randPoints(rng, 1000, dim)
	ref := make([]Point, len(pts))
	copy(ref, pts)
	tr, err := Build(pts, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, dim)
	got, err := tr.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(ref, q, 5)
	for i := range got {
		if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
			t.Errorf("neighbor %d: %g vs %g", i, got[i].Dist2, want[i].Dist2)
		}
	}
}
