package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestReshapePreservesPayload(t *testing.T) {
	a := Vector(1, 2, 3, 4, 5, 6)
	m, err := a.Reshape(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rank() != 2 || m.Dim(0) != 2 || m.Dim(1) != 3 {
		t.Fatalf("dims = %v", m.Dims())
	}
	// Column-major payload preserved: m[0,0]=1, m[1,0]=2, m[0,1]=3 ...
	v, _ := m.Item(1, 0)
	if v != 2 {
		t.Errorf("Item(1,0) = %g, want 2", v)
	}
	if _, err := a.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Errorf("count-changing reshape: %v", err)
	}
}

func TestReshapeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		a := Vector(raw...)
		r, err := a.Reshape(len(raw), 1)
		if err != nil {
			return false
		}
		back, err := r.Reshape(len(raw))
		if err != nil {
			return false
		}
		ap, bp := a.Payload(), back.Payload()
		for i := range ap {
			if ap[i] != bp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReshapeRankPromotion(t *testing.T) {
	// Reshaping a short rank-1 array into rank 7 must promote to max.
	a := Vector(1, 2, 3, 4, 5, 6, 7, 8)
	r, err := a.Reshape(2, 2, 2, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Class() != Max {
		t.Errorf("rank-7 reshape class = %v, want max", r.Class())
	}
}

func TestCastRawInverse(t *testing.T) {
	a := Vector(3, 1, 4, 1, 5)
	raw := a.Raw()
	if len(raw) != 5*8 {
		t.Fatalf("raw length = %d", len(raw))
	}
	b, err := Cast(Short, Float64, raw, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("Cast(Raw(a)) != a")
	}
	if _, err := Cast(Short, Float64, raw[:8], 5); !errors.Is(err, ErrShape) {
		t.Errorf("short raw buffer: %v", err)
	}
}

func TestConvertElem(t *testing.T) {
	a := Vector(1.9, -2.9, 3.5)
	i32, err := a.ConvertElem(Int32)
	if err != nil {
		t.Fatal(err)
	}
	if i32.ElemType() != Int32 {
		t.Fatalf("elem = %v", i32.ElemType())
	}
	want := []int64{1, -2, 3}
	for i, w := range want {
		if got := i32.IntAt(i); got != w {
			t.Errorf("element %d = %d, want %d", i, got, w)
		}
	}
	// float64 -> complex128 keeps values on the real axis.
	c, err := a.ConvertElem(Complex128)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ComplexAt(0); got != complex(1.9, 0) {
		t.Errorf("complex convert = %v", got)
	}
	// Widening past the short limit promotes the class.
	big, _ := New(Short, Int8, 900, 2, 2) // 3600 bytes + header: fits short
	w, err := big.ConvertElem(Float64)    // 28800 bytes: must become max
	if err != nil {
		t.Fatal(err)
	}
	if w.Class() != Max {
		t.Errorf("widened class = %v, want max", w.Class())
	}
}

func TestConvertClass(t *testing.T) {
	a := Vector(1, 2, 3)
	m, err := a.ConvertClass(Max)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class() != Max || m.Len() != 3 || m.FloatAt(1) != 2 {
		t.Errorf("max convert wrong: %v", m)
	}
	back, err := m.ConvertClass(Short)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(back) {
		t.Error("short->max->short roundtrip differs")
	}
	// A genuinely large max array cannot demote.
	big := mustNew(t, Max, Float64, 10000)
	if _, err := big.ConvertClass(Short); !errors.Is(err, errTooLarge) {
		t.Errorf("oversized demotion: %v", err)
	}
}

func TestAggregates(t *testing.T) {
	a := Vector(1, 2, 3, 4)
	if got := a.Sum(); got != 10 {
		t.Errorf("Sum = %g", got)
	}
	if got := a.Mean(); got != 2.5 {
		t.Errorf("Mean = %g", got)
	}
	lo, hi := a.MinMax()
	if lo != 1 || hi != 4 {
		t.Errorf("MinMax = %g,%g", lo, hi)
	}
	if got := a.Std(); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %g", got)
	}
	if got := a.Norm2(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("Norm2 = %g", got)
	}
}

func TestSumComplex(t *testing.T) {
	c, _ := FromComplex128s(Short, Complex128, []complex128{1 + 1i, 2 - 3i}, 2)
	if got := c.SumComplex(); got != 3-2i {
		t.Errorf("SumComplex = %v", got)
	}
	if got := c.Norm2(); math.Abs(got-math.Sqrt(1+1+4+9)) > 1e-12 {
		t.Errorf("complex Norm2 = %g", got)
	}
}

func TestReduceDim(t *testing.T) {
	// 2x3 matrix, column-major payload [1 2 | 3 4 | 5 6]:
	// m[0,:] = 1,3,5 ; m[1,:] = 2,4,6
	m, _ := Matrix(2, 3, 1, 2, 3, 4, 5, 6)
	rows, err := m.ReduceDim(1, ReduceSum) // sum over columns -> per-row sums
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rank() != 1 || rows.Dim(0) != 2 {
		t.Fatalf("dims = %v", rows.Dims())
	}
	if rows.FloatAt(0) != 9 || rows.FloatAt(1) != 12 {
		t.Errorf("row sums = %v, want [9 12]", rows.Float64s())
	}
	cols, err := m.ReduceDim(0, ReduceSum) // sum over rows -> per-column sums
	if err != nil {
		t.Fatal(err)
	}
	if cols.Dim(0) != 3 || cols.FloatAt(0) != 3 || cols.FloatAt(1) != 7 || cols.FloatAt(2) != 11 {
		t.Errorf("col sums = %v, want [3 7 11]", cols.Float64s())
	}
	mean, _ := m.ReduceDim(0, ReduceMean)
	if mean.FloatAt(0) != 1.5 {
		t.Errorf("col mean = %v", mean.Float64s())
	}
	mn, _ := m.ReduceDim(0, ReduceMin)
	mx, _ := m.ReduceDim(0, ReduceMax)
	if mn.FloatAt(2) != 5 || mx.FloatAt(2) != 6 {
		t.Errorf("min/max = %v / %v", mn.Float64s(), mx.Float64s())
	}
	if _, err := m.ReduceDim(2, ReduceSum); !errors.Is(err, ErrRank) {
		t.Errorf("bad axis: %v", err)
	}
}

func TestReduceDimMatchesManual3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mustNew(t, Max, Float64, 4, 5, 6)
	for i := 0; i < a.Len(); i++ {
		a.SetFloatAt(i, rng.Float64())
	}
	for axis := 0; axis < 3; axis++ {
		red, err := a.ReduceDim(axis, ReduceSum)
		if err != nil {
			t.Fatal(err)
		}
		// Manual: sum over the axis with Item.
		dims := a.Dims()
		outDims := append([]int{}, dims[:axis]...)
		outDims = append(outDims, dims[axis+1:]...)
		check := mustNew(t, Max, Float64, outDims...)
		ix := make([]int, 3)
		for i0 := 0; i0 < dims[0]; i0++ {
			for i1 := 0; i1 < dims[1]; i1++ {
				for i2 := 0; i2 < dims[2]; i2++ {
					ix[0], ix[1], ix[2] = i0, i1, i2
					v, _ := a.Item(ix...)
					out := make([]int, 0, 2)
					for k := 0; k < 3; k++ {
						if k != axis {
							out = append(out, ix[k])
						}
					}
					lin, _ := check.hdr.LinearIndex(out)
					check.SetFloatAt(lin, check.FloatAt(lin)+v)
				}
			}
		}
		for i := 0; i < red.Len(); i++ {
			if math.Abs(red.FloatAt(i)-check.FloatAt(i)) > 1e-9 {
				t.Fatalf("axis %d element %d: %g vs %g", axis, i, red.FloatAt(i), check.FloatAt(i))
			}
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := Vector(1, 2, 3)
	b := Vector(10, 20, 30)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Float64s(); got[0] != 11 || got[2] != 33 {
		t.Errorf("Add = %v", got)
	}
	diff, _ := Sub(b, a)
	if diff.FloatAt(1) != 18 {
		t.Errorf("Sub = %v", diff.Float64s())
	}
	prod, _ := Mul(a, b)
	if prod.FloatAt(2) != 90 {
		t.Errorf("Mul = %v", prod.Float64s())
	}
	quot, _ := Div(b, a)
	if quot.FloatAt(1) != 10 {
		t.Errorf("Div = %v", quot.Float64s())
	}
	sc, _ := a.Scale(2)
	if sc.FloatAt(2) != 6 {
		t.Errorf("Scale = %v", sc.Float64s())
	}
	ax, _ := AXPY(2, a, b)
	if ax.FloatAt(0) != 12 {
		t.Errorf("AXPY = %v", ax.Float64s())
	}
	d, _ := Dot(a, b)
	if d != 140 {
		t.Errorf("Dot = %g", d)
	}
	if _, err := Add(a, Vector(1, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch: %v", err)
	}
}

func TestMaskedDot(t *testing.T) {
	a := Vector(1, 2, 3, 4)
	b := Vector(1, 1, 1, 1)
	flags, _ := FromInt64s(Short, Int16, []int64{0, 1, 0, 0}, 4)
	got, used, err := MaskedDot(a, b, flags)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 || used != 3 {
		t.Errorf("MaskedDot = %g over %d bins, want 8 over 3", got, used)
	}
}

func TestResultElemPromotion(t *testing.T) {
	i, _ := FromInt64s(Short, Int32, []int64{1, 2}, 2)
	f := Vector(0.5, 0.5)
	sum, err := Add(i, f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ElemType() != Float64 {
		t.Errorf("int32+float64 elem = %v, want float", sum.ElemType())
	}
	c, _ := FromComplex128s(Short, Complex64, []complex128{1i, 2i}, 2)
	cs, err := Add(c, f)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.ElemType().IsComplex() {
		t.Errorf("complex+float elem = %v", cs.ElemType())
	}
	if got := cs.ComplexAt(0); got != complex(0.5, 1) {
		t.Errorf("complex add = %v", got)
	}
}

func TestApplyAbs(t *testing.T) {
	a := Vector(-1, 2, -3)
	abs, err := a.Abs()
	if err != nil {
		t.Fatal(err)
	}
	if got := abs.Float64s(); got[0] != 1 || got[2] != 3 {
		t.Errorf("Abs = %v", got)
	}
	c, _ := FromComplex128s(Short, Complex128, []complex128{3 + 4i}, 1)
	cm, err := c.Abs()
	if err != nil {
		t.Fatal(err)
	}
	if cm.ElemType() != Float64 || cm.FloatAt(0) != 5 {
		t.Errorf("complex Abs = %v %g", cm.ElemType(), cm.FloatAt(0))
	}
	sq, _ := a.Apply(func(x float64) float64 { return x * x })
	if sq.FloatAt(2) != 9 {
		t.Errorf("Apply = %v", sq.Float64s())
	}
}

func TestBuilderConcat(t *testing.T) {
	// The T-SQL Concat pattern: assemble a 100x200-shaped array cell by cell
	// (scaled down to 4x5 here).
	b, err := NewBuilder(Short, Float64, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if err := b.SetVec(IntVector(i, j), float64(10*i+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := b.Array()
	v, _ := a.Item(3, 4)
	if v != 34 {
		t.Errorf("Item(3,4) = %g, want 34", v)
	}
}

func TestToTableFromCellsRoundtrip(t *testing.T) {
	m, _ := Matrix(2, 3, 1, 2, 3, 4, 5, 6)
	cells := m.ToTable()
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The cells rebuild the array cell by cell, as the T-SQL Concat
	// aggregate would.
	b, err := NewBuilder(Short, Float64, m.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := b.Set(c.Value, c.Index...); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Equal(b.Array()) {
		t.Error("ToTable/Builder roundtrip differs")
	}
}

func TestFormatParseRoundtrip(t *testing.T) {
	m, _ := Matrix(2, 3, 1, 2, 3, 4, 5, 6)
	s := Format(m)
	if !strings.HasPrefix(s, "[[") {
		t.Fatalf("Format = %q", s)
	}
	back, err := Parse(Float64, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rank() != 2 || back.Dim(0) != 2 || back.Dim(1) != 3 {
		t.Fatalf("parsed dims = %v", back.Dims())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a, _ := m.Item(i, j)
			b, _ := back.Item(i, j)
			if a != b {
				t.Errorf("(%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}

// TestFormatEmptyArray: an array with no elements formats in O(rank) —
// nested empty lists down to the first zero dimension — whatever the
// dimensions around the empty one are ([134217728,0,0] used to print 134
// million bracket pairs), Parse accepts the output, and the shapes whose
// leading dimensions are all 1 still round-trip exactly.
func TestFormatEmptyArray(t *testing.T) {
	for _, c := range []struct {
		dims   []int
		want   string
		parsed []int
	}{
		{[]int{0}, "[]", []int{0}},
		{[]int{1, 0}, "[[]]", []int{1, 0}},
		{[]int{1, 1, 0}, "[[[]]]", []int{1, 1, 0}},
		{[]int{0, 5}, "[]", []int{0}},
		{[]int{3, 0}, "[[]]", []int{1, 0}},
		{[]int{2, 0, 7}, "[[]]", []int{1, 0}},
		{[]int{134217728, 0, 0}, "[[]]", []int{1, 0}},
	} {
		a, err := New(Max, Float64, c.dims...)
		if err != nil {
			t.Fatalf("New(%v): %v", c.dims, err)
		}
		s := Format(a)
		if s != c.want {
			t.Errorf("Format(dims %v) = %d bytes starting %.20q, want %q", c.dims, len(s), s, c.want)
		}
		back, err := Parse(Float64, s)
		if err != nil {
			t.Fatalf("Parse(Format(dims %v) = %.20q): %v", c.dims, s, err)
		}
		if got := back.Dims(); !reflect.DeepEqual(got, c.parsed) {
			t.Errorf("Parse(Format(dims %v)) has dims %v, want %v", c.dims, got, c.parsed)
		}
	}
}

func TestFormatParseComplex(t *testing.T) {
	c, _ := FromComplex128s(Short, Complex128, []complex128{1 + 2i, -3 - 0.5i}, 2)
	s := Format(c)
	back, err := Parse(Complex128, s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	for i := 0; i < 2; i++ {
		if back.ComplexAt(i) != c.ComplexAt(i) {
			t.Errorf("element %d: %v vs %v", i, back.ComplexAt(i), c.ComplexAt(i))
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(Float64, "[1,2,[3]]"); !errors.Is(err, ErrShape) {
		t.Errorf("ragged literal: %v", err)
	}
	if _, err := Parse(Float64, "[1,2"); err == nil {
		t.Error("unterminated literal must fail")
	}
	if _, err := Parse(Float64, "[1,x]"); err == nil {
		t.Error("bad scalar must fail")
	}
	if _, err := Parse(Float64, "[1] trailing"); err == nil {
		t.Error("trailing characters must fail")
	}
	if _, err := Parse(Float64, "  "); err == nil {
		t.Error("empty input must fail")
	}
}

func TestParseScientificAndNegative(t *testing.T) {
	a, err := Parse(Float64, "[1e-3,-2.5E2,+4]")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1e-3, -250, 4}
	for i, w := range want {
		if got := a.FloatAt(i); got != w {
			t.Errorf("element %d = %g, want %g", i, got, w)
		}
	}
}

func TestFloat64sConversionPaths(t *testing.T) {
	// Exercise the Float64, Float32 and an integer decode loop.
	f64 := Vector(1.5, 2.5)
	if got := f64.Float64s(); got[1] != 2.5 {
		t.Errorf("float64 path: %v", got)
	}
	f32, _ := FromFloat64s(Short, Float32, []float64{1.5, 2.5}, 2)
	if got := f32.Float64s(); got[0] != 1.5 {
		t.Errorf("float32 path: %v", got)
	}
	i16, _ := FromInt64s(Short, Int16, []int64{-7, 9}, 2)
	if got := i16.Float64s(); got[0] != -7 || got[1] != 9 {
		t.Errorf("int16 path: %v", got)
	}
	if got := i16.Int64s(); got[0] != -7 {
		t.Errorf("Int64s: %v", got)
	}
	if got := i16.Ints(); got[1] != 9 {
		t.Errorf("Ints: %v", got)
	}
}

// TestBulkDecodersMatchElementAccessors holds the whole-array decoders
// (Float64s/CopyFloat64s, Int64s, Ints), which run one loop per element
// type, to the per-element FloatAt and IntAt, for every element type,
// including empty and one-element arrays.
func TestBulkDecodersMatchElementAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for et := Int8; et <= Complex128; et++ {
		for _, n := range []int{0, 1, 2, 7, 300} {
			a := mustNew(t, Max, et, n)
			for i := 0; i < n; i++ {
				// Within every type's range; floats get a fraction and
				// complex values an imaginary part the decoders must drop.
				v := float64(rng.Intn(255) - 127)
				if !et.IsInteger() {
					v += rng.Float64()
				}
				a.SetComplexAt(i, complex(v, float64(rng.Intn(9)-4)))
			}
			f, is, ints := a.Float64s(), a.Int64s(), a.Ints()
			if len(f) != n || len(is) != n || len(ints) != n {
				t.Fatalf("%s[%d]: decoded %d/%d/%d elements", et, n, len(f), len(is), len(ints))
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(f[i]) != math.Float64bits(a.FloatAt(i)) {
					t.Errorf("%s[%d]: Float64s[%d] = %v, FloatAt = %v", et, n, i, f[i], a.FloatAt(i))
				}
				if is[i] != a.IntAt(i) || ints[i] != int(a.IntAt(i)) {
					t.Errorf("%s[%d]: Int64s/Ints[%d] = %d/%d, IntAt = %d", et, n, i, is[i], ints[i], a.IntAt(i))
				}
			}
		}
	}
}

func TestSetFloat64s(t *testing.T) {
	a := mustNew(t, Short, Float64, 3)
	if err := a.SetFloat64s([]float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if a.FloatAt(2) != 9 {
		t.Errorf("SetFloat64s: %v", a.Float64s())
	}
	if err := a.SetFloat64s([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("length mismatch: %v", err)
	}
}
