package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveSubarray extracts a subarray by per-element indexing, the obviously
// correct reference implementation.
func naiveSubarray(t *testing.T, a *Array, offset, size []int) []float64 {
	t.Helper()
	n := 1
	for _, s := range size {
		n *= s
	}
	out := make([]float64, 0, n)
	ix := make([]int, len(size))
	for k := 0; k < n; k++ {
		src := make([]int, len(size))
		for d := range src {
			src[d] = offset[d] + ix[d]
		}
		v, err := a.Item(src...)
		if err != nil {
			t.Fatalf("Item(%v): %v", src, err)
		}
		out = append(out, v)
		for d := 0; d < len(size); d++ {
			ix[d]++
			if ix[d] < size[d] {
				break
			}
			ix[d] = 0
		}
	}
	return out
}

func TestSubarray3D(t *testing.T) {
	a := mustNew(t, Max, Float64, 8, 8, 8)
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, float64(i))
	}
	offset := []int{1, 4, 6}
	size := []int{5, 3, 2}
	sub, err := a.Subarray(offset, size, false)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rank() != 3 || sub.Dim(0) != 5 || sub.Dim(1) != 3 || sub.Dim(2) != 2 {
		t.Fatalf("sub dims = %v", sub.Dims())
	}
	want := naiveSubarray(t, a, offset, size)
	got := sub.Float64s()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSubarrayMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		rank := 1 + rng.Intn(4)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 1 + rng.Intn(6)
		}
		a, err := NewAuto(Float64, dims...)
		if err != nil {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			a.SetFloatAt(i, rng.NormFloat64())
		}
		offset := make([]int, rank)
		size := make([]int, rank)
		for i := range dims {
			offset[i] = rng.Intn(dims[i])
			size[i] = 1 + rng.Intn(dims[i]-offset[i])
		}
		sub, err := a.Subarray(offset, size, false)
		if err != nil {
			return false
		}
		got := sub.Float64s()
		n := 1
		for _, s := range size {
			n *= s
		}
		ix := make([]int, rank)
		for k := 0; k < n; k++ {
			src := make([]int, rank)
			for d := range src {
				src[d] = offset[d] + ix[d]
			}
			v, err := a.Item(src...)
			if err != nil || got[k] != v {
				return false
			}
			for d := 0; d < rank; d++ {
				ix[d]++
				if ix[d] < size[d] {
					break
				}
				ix[d] = 0
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubarrayCollapse(t *testing.T) {
	m, _ := Matrix(3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	// Extract column 1 (a 3x1 block) with collapse: should become rank 1.
	col, err := m.Subarray([]int{0, 1}, []int{3, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if col.Rank() != 1 || col.Dim(0) != 3 {
		t.Fatalf("collapsed dims = %v, want [3]", col.Dims())
	}
	want := []float64{4, 5, 6} // column-major column 1
	for i, w := range want {
		if got := col.FloatAt(i); got != w {
			t.Errorf("col[%d] = %g, want %g", i, got, w)
		}
	}
	// Without collapse the shape is preserved.
	keep, _ := m.Subarray([]int{0, 1}, []int{3, 1}, false)
	if keep.Rank() != 2 {
		t.Errorf("uncollapsed rank = %d, want 2", keep.Rank())
	}
	// A single element collapses to rank 1, size 1 (not rank 0).
	one, _ := m.Subarray([]int{1, 1}, []int{1, 1}, true)
	if one.Rank() != 1 || one.Dim(0) != 1 {
		t.Errorf("degenerate collapse dims = %v, want [1]", one.Dims())
	}
}

func TestSubarrayErrors(t *testing.T) {
	a := mustNew(t, Short, Float64, 4, 4)
	if _, err := a.Subarray([]int{0}, []int{2}, false); !errors.Is(err, ErrRank) {
		t.Errorf("rank mismatch: %v", err)
	}
	if _, err := a.Subarray([]int{3, 0}, []int{2, 2}, false); !errors.Is(err, ErrBounds) {
		t.Errorf("overflow: %v", err)
	}
	if _, err := a.Subarray([]int{0, 0}, []int{0, 2}, false); !errors.Is(err, ErrBounds) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := a.Subarray([]int{-1, 0}, []int{2, 2}, false); !errors.Is(err, ErrBounds) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestSubarrayFromTSQLConvention(t *testing.T) {
	a := mustNew(t, Max, Float64, 10, 10, 10)
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, float64(i))
	}
	sub, err := a.SubarrayFrom(IntVector(1, 4, 6), IntVector(5, 5, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dim(0) != 5 || sub.Dim(1) != 5 || sub.Dim(2) != 3 {
		t.Fatalf("dims = %v", sub.Dims())
	}
	v, _ := sub.Item(0, 0, 0)
	w, _ := a.Item(1, 4, 6)
	if v != w {
		t.Errorf("corner = %g, want %g", v, w)
	}
}

func TestSubarrayPlanRunsAreMinimal(t *testing.T) {
	h := Header{Class: Max, Elem: Float64, Dims: []int{64, 64, 64}}
	// A full-width slab along dim 0 should be a small number of runs.
	runs, err := SubarrayPlan(h, []int{0, 10, 10}, []int{64, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 16 {
		t.Errorf("runs = %d, want 16 (4*4 outer iterations)", len(runs))
	}
	for _, r := range runs {
		if r.Len != 64*8 {
			t.Errorf("run length = %d, want %d", r.Len, 64*8)
		}
	}
	// Runs must be disjoint in destination and cover the payload.
	covered := 0
	for _, r := range runs {
		covered += r.Len
	}
	if covered != 64*4*4*8 {
		t.Errorf("covered %d bytes, want %d", covered, 64*4*4*8)
	}
}

func TestSubarrayClassDemotion(t *testing.T) {
	// Subsetting a max array to a page-sized block yields a short array.
	a := mustNew(t, Max, Float64, 100, 100)
	sub, err := a.Subarray([]int{0, 0}, []int{10, 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Class() != Short {
		t.Errorf("10x10 float64 subarray class = %v, want short", sub.Class())
	}
}
