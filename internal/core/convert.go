package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FromFloat64s builds an array of element type et from float64 data laid
// out in column-major order. len(data) must equal the product of dims.
func FromFloat64s(class StorageClass, et ElemType, data []float64, dims ...int) (*Array, error) {
	a, err := New(class, et, dims...)
	if err != nil {
		return nil, err
	}
	if len(data) != a.Len() {
		return nil, fmt.Errorf("%w: %d values for %d elements", ErrShape, len(data), a.Len())
	}
	for i, v := range data {
		a.SetFloatAt(i, v)
	}
	return a, nil
}

// FromInt64s builds an array of element type et from int64 data.
func FromInt64s(class StorageClass, et ElemType, data []int64, dims ...int) (*Array, error) {
	a, err := New(class, et, dims...)
	if err != nil {
		return nil, err
	}
	if len(data) != a.Len() {
		return nil, fmt.Errorf("%w: %d values for %d elements", ErrShape, len(data), a.Len())
	}
	for i, v := range data {
		a.SetIntAt(i, v)
	}
	return a, nil
}

// FromComplex128s builds a complex array from complex128 data.
func FromComplex128s(class StorageClass, et ElemType, data []complex128, dims ...int) (*Array, error) {
	a, err := New(class, et, dims...)
	if err != nil {
		return nil, err
	}
	if len(data) != a.Len() {
		return nil, fmt.Errorf("%w: %d values for %d elements", ErrShape, len(data), a.Len())
	}
	for i, v := range data {
		a.SetComplexAt(i, v)
	}
	return a, nil
}

// Vector builds a rank-1 short float64 array from its arguments, the Go
// counterpart of the T-SQL FloatArray.Vector_N constructors.
func Vector(vals ...float64) *Array {
	a, err := FromFloat64s(Short, Float64, vals, len(vals))
	if err != nil {
		// A vector that does not fit the short class must be built
		// explicitly as a max array; Vector is the convenience path.
		a, err = FromFloat64s(Max, Float64, vals, len(vals))
		if err != nil {
			panic(err) // unreachable: rank-1 max arrays have no size limit here
		}
	}
	return a
}

// IntVector builds a rank-1 short int32 array, the counterpart of
// IntArray.Vector_N. It is the index-vector type used by Subarray calls.
func IntVector(vals ...int) *Array {
	data := make([]int64, len(vals))
	for i, v := range vals {
		data[i] = int64(v)
	}
	a, err := FromInt64s(Short, Int32, data, len(vals))
	if err != nil {
		panic(err) // index vectors are tiny by construction
	}
	return a
}

// Matrix builds a rank-2 short float64 array with r rows and c columns
// from vals given in column-major order (the storage order), the
// counterpart of FloatArray.Matrix_N.
func Matrix(r, c int, vals ...float64) (*Array, error) {
	return FromFloat64s(Short, Float64, vals, r, c)
}

// Float64s converts the whole payload to a []float64 in column-major
// order — the marshaling step that hands an array to a math library.
func (a *Array) Float64s() []float64 {
	out := make([]float64, a.Len())
	a.CopyFloat64s(out)
	return out
}

// CopyFloat64s fills dst with the array's elements converted to float64,
// as FloatAt converts them. dst must have length >= a.Len().
func (a *Array) CopyFloat64s(dst []float64) { decode(a.hdr.Elem, a.Payload(), dst[:a.Len()]) }

// SetFloat64s overwrites the payload from src (column-major), converting
// to the array's element type. len(src) must equal a.Len().
func (a *Array) SetFloat64s(src []float64) error {
	if len(src) != a.Len() {
		return fmt.Errorf("%w: %d values for %d elements", ErrShape, len(src), a.Len())
	}
	p := a.Payload()
	switch a.hdr.Elem {
	case Float64:
		for i, v := range src {
			binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
		}
	default:
		for i, v := range src {
			a.SetFloatAt(i, v)
		}
	}
	return nil
}

// Int64s converts the whole payload to []int64, as IntAt converts each
// element.
func (a *Array) Int64s() []int64 {
	out := make([]int64, a.Len())
	decode(a.hdr.Elem, a.Payload(), out)
	return out
}

// Ints converts the whole payload to []int (useful for index vectors).
func (a *Array) Ints() []int {
	out := make([]int, a.Len())
	decode(a.hdr.Elem, a.Payload(), out)
	return out
}

// decode fills dst with the first len(dst) elements of type et in
// payload p, each converted to T as ElemType.Float or ElemType.Int converts it
// (complex values keep the real part). The element type is switched on
// once per call, not per element: each type has its own loop. The
// Float64 loop into []float64 is the analogue of the paper's "simple
// memory copy" for on-page arrays.
func decode[T float64 | int64 | int](et ElemType, p []byte, dst []T) {
	p = p[:len(dst)*et.Size()]
	switch et {
	case Int8:
		for i, b := range p {
			dst[i] = T(int8(b))
		}
	case Int16:
		for i := range dst {
			dst[i] = T(int16(binary.LittleEndian.Uint16(p[2*i:])))
		}
	case Int32:
		for i := range dst {
			dst[i] = T(int32(binary.LittleEndian.Uint32(p[4*i:])))
		}
	case Int64:
		for i := range dst {
			dst[i] = T(int64(binary.LittleEndian.Uint64(p[8*i:])))
		}
	case Float32:
		for i := range dst {
			dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
		}
	case Float64:
		for i := range dst {
			dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
	case Complex64:
		for i := range dst {
			dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(p[8*i:])))
		}
	case Complex128:
		for i := range dst {
			dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(p[16*i:])))
		}
	default:
		panic("core: invalid element type in validated array")
	}
}

// Complex128s converts the whole payload to []complex128.
func (a *Array) Complex128s() []complex128 {
	out := make([]complex128, a.Len())
	for i := range out {
		out[i] = a.ComplexAt(i)
	}
	return out
}

// ConvertElem returns a new array with the same shape and storage class
// but element type et, converting every element. Converting a complex
// array to a real type keeps the real part.
func (a *Array) ConvertElem(et ElemType) (*Array, error) {
	class := a.hdr.Class
	// The target may not fit the short class if the element widens.
	h := Header{Class: class, Elem: et, Dims: a.hdr.Dims}
	if class == Short && h.Validate() != nil {
		class = Max
	}
	out, err := New(class, et, a.hdr.Dims...)
	if err != nil {
		return nil, err
	}
	switch {
	case et.IsComplex():
		for i := 0; i < a.Len(); i++ {
			out.SetComplexAt(i, a.ComplexAt(i))
		}
	case et.IsInteger() && a.hdr.Elem.IsInteger():
		for i := 0; i < a.Len(); i++ {
			out.SetIntAt(i, a.IntAt(i))
		}
	default:
		for i := 0; i < a.Len(); i++ {
			out.SetFloatAt(i, a.FloatAt(i))
		}
	}
	return out, nil
}

// ConvertClass returns the array re-serialized under the other storage
// class (short <-> max), re-checking short-class limits.
func (a *Array) ConvertClass(class StorageClass) (*Array, error) {
	if class == a.hdr.Class {
		return a.Clone(), nil
	}
	out, err := New(class, a.hdr.Elem, a.hdr.Dims...)
	if err != nil {
		return nil, err
	}
	copy(out.Payload(), a.Payload())
	return out, nil
}
