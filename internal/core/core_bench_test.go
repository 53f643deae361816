package core

import "testing"

func BenchmarkHeaderDecodeShort(b *testing.B) {
	blob := Vector(1, 2, 3, 4, 5).Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeHeader(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrap(b *testing.B) {
	blob := Vector(1, 2, 3, 4, 5).Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Wrap(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkItem2D(b *testing.B) {
	m, err := New(Short, Float64, 30, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Item(i%30, (i/30)%30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloatAtLinear(b *testing.B) {
	a := Vector(make([]float64, 900)...)
	s := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += a.FloatAt(i % 900)
	}
	_ = s
}

func BenchmarkFloat64sBulkDecode(b *testing.B) {
	a, err := New(Max, Float64, 65536)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, a.Len())
	b.SetBytes(int64(8 * a.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CopyFloat64s(dst)
	}
}

func BenchmarkSum64k(b *testing.B) {
	a, err := New(Max, Float64, 65536)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * a.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sum()
	}
}

func BenchmarkReduceDimAxis0(b *testing.B) {
	a, err := New(Max, Float64, 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ReduceDim(0, ReduceSum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubarrayPlanOnly(b *testing.B) {
	h := Header{Class: Max, Elem: Float64, Dims: []int{128, 128, 128}}
	off := []int{10, 20, 30}
	size := []int{8, 8, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubarrayPlan(h, off, size); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatParse(b *testing.B) {
	m, err := FromFloat64s(Short, Float64, make([]float64, 64), 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	s := Format(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(Float64, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemPass is a short schema's Item_1 without the boundary or
// the SQL values: validate the array, run the §3.5 check and read one
// element in place, as Table 1's query 4 does per row — in one pass
// (Item) and, for comparison, as ViewOf + View.Item did it — over the
// 5-vector of query 4 and a 3x3x3 max cube.
func BenchmarkItemPass(b *testing.B) {
	cube, err := New(Max, Float64, 3, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		blob []byte
		idx  []int
	}{{"short", Vector(1, 2, 3, 4, 5).Bytes(), []int{3}}, {"max", cube.Bytes(), []int{1, 1, 1}}} {
		blob, idx := shape.blob, shape.idx
		class := StorageClass(blob[1] & classFlagMask)
		check := flagCheck(Float64, class)
		b.Run(shape.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				p, err := Item(blob, idx, Float64, class, "FloatArray")
				if err != nil {
					b.Fatal(err)
				}
				s += Float64.Float(p)
			}
			_ = s
		})
		b.Run(shape.name+"-view", func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				v, err := ViewOf(blob)
				if err != nil {
					b.Fatal(err)
				}
				if err := check(v.ElemType(), v.Class()); err != nil {
					b.Fatal(err)
				}
				x, err := v.Item(idx)
				if err != nil {
					b.Fatal(err)
				}
				s += x
			}
			_ = s
		})
	}
}
