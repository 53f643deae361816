package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, class StorageClass, et ElemType, dims ...int) *Array {
	t.Helper()
	a, err := New(class, et, dims...)
	if err != nil {
		t.Fatalf("New(%v,%v,%v): %v", class, et, dims, err)
	}
	return a
}

func TestNewZeroFilled(t *testing.T) {
	a := mustNew(t, Short, Float64, 4, 3)
	if a.Len() != 12 {
		t.Fatalf("Len = %d, want 12", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.FloatAt(i) != 0 {
			t.Fatalf("element %d = %g, want 0", i, a.FloatAt(i))
		}
	}
}

func TestWrapRoundtrip(t *testing.T) {
	a := Vector(1, 2, 3, 4, 5)
	b, err := Wrap(a.Bytes())
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	if !a.Equal(b) {
		t.Error("wrapped array differs")
	}
	// Wrap aliases: mutating the wrap must show through.
	b.SetFloatAt(0, 99)
	if a.FloatAt(0) != 99 {
		t.Error("Wrap must alias the input buffer")
	}
}

func TestWrapTruncatedPayload(t *testing.T) {
	a := Vector(1, 2, 3)
	blob := a.Bytes()
	if _, err := Wrap(blob[:len(blob)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestColumnMajorLinearIndex(t *testing.T) {
	// dims [2,3]: linear order is (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
	a := mustNew(t, Short, Float64, 2, 3)
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	for lin, ix := range want {
		got, err := a.hdr.LinearIndex(ix[:])
		if err != nil || got != lin {
			t.Errorf("LinearIndex(%v) = %d,%v; want %d", ix, got, err, lin)
		}
		back, err := a.MultiIndex(lin)
		if err != nil || back[0] != ix[0] || back[1] != ix[1] {
			t.Errorf("MultiIndex(%d) = %v,%v; want %v", lin, back, err, ix)
		}
	}
}

func TestLinearMultiIndexInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		rank := 1 + rng.Intn(4)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
		}
		a, err := NewAuto(Int32, dims...)
		if err != nil {
			return false
		}
		lin := rng.Intn(a.Len())
		ix, err := a.MultiIndex(lin)
		if err != nil {
			return false
		}
		back, err := a.hdr.LinearIndex(ix)
		return err == nil && back == lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestItemAndUpdateItem(t *testing.T) {
	m, err := Matrix(2, 2, 0.1, 0.2, 0.3, 0.4) // column-major: m[0,0]=0.1 m[1,0]=0.2 m[0,1]=0.3 m[1,1]=0.4
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Item(1, 0)
	if err != nil || v != 0.2 {
		t.Errorf("Item(1,0) = %g,%v; want 0.2", v, err)
	}
	if err := m.UpdateItem(4.5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Item(1, 1); v != 4.5 {
		t.Errorf("after UpdateItem, Item(1,1) = %g", v)
	}
	if _, err := m.Item(2, 0); !errors.Is(err, ErrBounds) {
		t.Errorf("out-of-bounds Item: %v", err)
	}
	if _, err := m.Item(0); !errors.Is(err, ErrRank) {
		t.Errorf("wrong-arity Item: %v", err)
	}
}

func TestAllElemTypesRoundtrip(t *testing.T) {
	vals := []float64{-3, 0, 1, 127}
	for et := Int8; et <= Complex128; et++ {
		a, err := NewAuto(et, len(vals))
		if err != nil {
			t.Fatalf("%v: %v", et, err)
		}
		for i, v := range vals {
			a.SetFloatAt(i, v)
		}
		for i, v := range vals {
			if got := a.FloatAt(i); got != v {
				t.Errorf("%v element %d = %g, want %g", et, i, got, v)
			}
			if got := a.IntAt(i); got != int64(v) {
				t.Errorf("%v IntAt %d = %d, want %d", et, i, got, int64(v))
			}
		}
	}
}

func TestComplexAccess(t *testing.T) {
	for _, et := range []ElemType{Complex64, Complex128} {
		a, err := NewAuto(et, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := []complex128{1 + 2i, -3.5 + 0.25i, 0}
		for i, v := range want {
			a.SetComplexAt(i, v)
		}
		for i, v := range want {
			if got := a.ComplexAt(i); got != v {
				t.Errorf("%v ComplexAt(%d) = %v, want %v", et, i, got, v)
			}
		}
		// Real view of a complex array returns the real part.
		if got := a.FloatAt(0); got != 1 {
			t.Errorf("FloatAt on complex = %g, want 1", got)
		}
	}
}

func TestRealArrayComplexView(t *testing.T) {
	a := Vector(2.5)
	if got := a.ComplexAt(0); got != complex(2.5, 0) {
		t.Errorf("ComplexAt on real = %v", got)
	}
	a.SetComplexAt(0, 3+4i) // imaginary part dropped
	if got := a.FloatAt(0); got != 3 {
		t.Errorf("SetComplexAt on real stored %g, want 3", got)
	}
}

func TestIntegerTruncation(t *testing.T) {
	a, _ := NewAuto(Int32, 1)
	a.SetFloatAt(0, 3.9)
	if got := a.IntAt(0); got != 3 {
		t.Errorf("float->int stored %d, want truncation to 3", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector(1, 2, 3)
	b := a.Clone()
	b.SetFloatAt(0, 42)
	if a.FloatAt(0) != 1 {
		t.Error("Clone must not share storage")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Clone must compare equal")
	}
}

func TestEqualDiffers(t *testing.T) {
	a := Vector(1, 2, 3)
	if a.Equal(Vector(1, 2, 4)) {
		t.Error("different payloads must differ")
	}
	m, _ := Matrix(3, 1, 1, 2, 3)
	if a.Equal(m) {
		t.Error("different shapes must differ")
	}
	ci, _ := FromInt64s(Short, Int32, []int64{1, 2, 3}, 3)
	if a.Equal(ci) {
		t.Error("different element types must differ")
	}
}

func TestNewAutoClassSelection(t *testing.T) {
	small, err := NewAuto(Float64, 10)
	if err != nil || small.Class() != Short {
		t.Errorf("small array class = %v, err %v; want short", small.Class(), err)
	}
	big, err := NewAuto(Float64, 10000)
	if err != nil || big.Class() != Max {
		t.Errorf("big array class = %v, err %v; want max", big.Class(), err)
	}
	deep, err := NewAuto(Int8, 1, 1, 1, 1, 1, 1, 1) // rank 7 -> max
	if err != nil || deep.Class() != Max {
		t.Errorf("deep array class = %v, err %v; want max", deep.Class(), err)
	}
}

func TestShortClassLimitExact(t *testing.T) {
	// 997 float64 = 7976 bytes payload + 24 header = 8000: exactly fits.
	if _, err := New(Short, Float64, 997); err != nil {
		t.Errorf("997 float64 should fit VARBINARY(8000): %v", err)
	}
	if _, err := New(Short, Float64, 998); !errors.Is(err, errTooLarge) {
		t.Errorf("998 float64 must overflow: %v", err)
	}
}

func TestVectorFallsBackToMax(t *testing.T) {
	vals := make([]float64, 2000)
	a := Vector(vals...)
	if a.Class() != Max {
		t.Errorf("2000-element Vector class = %v, want max", a.Class())
	}
	if a.Len() != 2000 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	m, _ := Matrix(2, 2, 1, 2, 3, 4)
	var seen []float64
	m.Walk(func(ix []int, v float64) bool {
		seen = append(seen, v)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Errorf("Walk visited %v", seen)
	}
}

func TestNaNRoundtrip(t *testing.T) {
	a := Vector(math.NaN(), math.Inf(1), math.Inf(-1))
	if !math.IsNaN(a.FloatAt(0)) || !math.IsInf(a.FloatAt(1), 1) || !math.IsInf(a.FloatAt(2), -1) {
		t.Error("special float values must roundtrip")
	}
}
