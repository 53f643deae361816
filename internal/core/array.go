package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Array is a decoded view over a serialized array blob. The blob (header +
// column-major payload) is the canonical representation — exactly the bytes
// that would sit in a VARBINARY column — and Array keeps the decoded header
// alongside it for cheap access.
//
// An Array is cheap to copy; the underlying buffer is shared. Mutating
// methods (SetItem and friends) write through to the shared buffer.
type Array struct {
	hdr Header
	buf []byte // full blob: header + payload
}

// New allocates a zero-filled array of the given storage class, element
// type and dimension sizes.
func New(class StorageClass, et ElemType, dims ...int) (*Array, error) {
	h := Header{Class: class, Elem: et, Dims: append([]int(nil), dims...)}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, h.TotalBytes())
	buf = h.AppendEncode(buf)
	buf = append(buf, make([]byte, h.DataBytes())...)
	return &Array{hdr: h, buf: buf}, nil
}

// NewAuto allocates an array choosing the storage class automatically:
// short if the blob fits a data page and respects short-class limits,
// max otherwise.
func NewAuto(et ElemType, dims ...int) (*Array, error) {
	h := Header{Class: Short, Elem: et, Dims: dims}
	if len(dims) <= maxShortRank && h.Validate() == nil {
		return New(Short, et, dims...)
	}
	return New(Max, et, dims...)
}

// Wrap interprets b as a serialized array. The header is validated and the
// payload length checked; the returned Array aliases b (no copy), matching
// the paper's "convert to .NET arrays by a simple memory copy" fast path
// for on-page data.
func Wrap(b []byte) (*Array, error) {
	_, total, err := checkArray(b)
	if err != nil {
		return nil, err
	}
	a := &Array{buf: b[:total]}
	a.hdr.load(b)
	return a, nil
}

// Bytes returns the serialized blob (header + payload). The slice aliases
// the array's storage; callers that persist it should copy.
func (a *Array) Bytes() []byte { return a.buf }

// Header returns a copy of the decoded header.
func (a *Array) Header() Header {
	h := a.hdr
	h.Dims = append([]int(nil), a.hdr.Dims...)
	return h
}

// Class returns the storage class.
func (a *Array) Class() StorageClass { return a.hdr.Class }

// ElemType returns the element type.
func (a *Array) ElemType() ElemType { return a.hdr.Elem }

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.hdr.Dims) }

// Dims returns a copy of the dimension sizes.
func (a *Array) Dims() []int { return append([]int(nil), a.hdr.Dims...) }

// Dim returns the size of dimension i.
func (a *Array) Dim(i int) int { return a.hdr.Dims[i] }

// Len returns the total number of elements.
func (a *Array) Len() int { return a.hdr.Count() }

// Payload returns the raw element bytes (without the header), aliasing the
// array's storage.
func (a *Array) Payload() []byte { return a.buf[a.hdr.EncodedSize():] }

// String renders small arrays fully and large ones by header only.
func (a *Array) String() string {
	if a.Len() <= 64 {
		return a.hdr.String() + " " + Format(a)
	}
	return a.hdr.String()
}

// MultiIndex converts a column-major linear element index back to a
// multi-dimensional index. It is the inverse of Header.LinearIndex.
func (a *Array) MultiIndex(lin int) ([]int, error) {
	if lin < 0 || lin >= a.Len() {
		return nil, fmt.Errorf("%w: linear index %d outside [0,%d)", ErrBounds, lin, a.Len())
	}
	idx := make([]int, len(a.hdr.Dims))
	for k, d := range a.hdr.Dims {
		idx[k] = lin % d
		lin /= d
	}
	return idx, nil
}

// elemOffset returns the byte offset of linear element i within the blob.
func (a *Array) elemOffset(i int) int {
	return a.hdr.EncodedSize() + i*a.hdr.Elem.Size()
}

// FloatAt returns linear element i converted to float64. Integer types
// are widened; for complex types the real part is returned.
func (a *Array) FloatAt(i int) float64 { return a.hdr.Elem.Float(a.buf[a.elemOffset(i):]) }

// IntAt returns linear element i converted to int64 (floats truncate
// toward zero, matching T-SQL CAST semantics for integral targets).
func (a *Array) IntAt(i int) int64 { return a.hdr.Elem.Int(a.buf[a.elemOffset(i):]) }

// Float reads the element of type t at the front of p as float64:
// integer types widen, and a complex element gives its real part.
func (t ElemType) Float(p []byte) float64 {
	// A double is tested first, not through the switch's jump table:
	// Table 1's query 4 reads one per row.
	if t == Float64 || t == Complex128 {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	switch t {
	case Int8:
		return float64(int8(p[0]))
	case Int16:
		return float64(int16(binary.LittleEndian.Uint16(p)))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(p)))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(p)))
	case Float32, Complex64:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(p)))
	}
	panic("core: invalid element type in validated array")
}

// Int reads the element of type t at the front of p as int64: floats
// truncate toward zero, and a complex element gives its real part.
func (t ElemType) Int(p []byte) int64 {
	switch t {
	case Int8:
		return int64(int8(p[0]))
	case Int16:
		return int64(int16(binary.LittleEndian.Uint16(p)))
	case Int32:
		return int64(int32(binary.LittleEndian.Uint32(p)))
	case Int64:
		return int64(binary.LittleEndian.Uint64(p))
	case Float32, Complex64:
		return int64(math.Float32frombits(binary.LittleEndian.Uint32(p)))
	case Float64, Complex128:
		return int64(math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	panic("core: invalid element type in validated array")
}

// ComplexAt returns linear element i converted to complex128. Real types
// produce a zero imaginary part.
func (a *Array) ComplexAt(i int) complex128 {
	switch a.hdr.Elem {
	case Complex64:
		p := a.buf[a.elemOffset(i):]
		re := math.Float32frombits(binary.LittleEndian.Uint32(p))
		im := math.Float32frombits(binary.LittleEndian.Uint32(p[4:]))
		return complex(float64(re), float64(im))
	case Complex128:
		p := a.buf[a.elemOffset(i):]
		re := math.Float64frombits(binary.LittleEndian.Uint64(p))
		im := math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		return complex(re, im)
	default:
		return complex(a.FloatAt(i), 0)
	}
}

// SetFloatAt stores v (converted to the array's element type) at linear
// element i.
func (a *Array) SetFloatAt(i int, v float64) {
	p := a.buf[a.elemOffset(i):]
	switch a.hdr.Elem {
	case Int8:
		p[0] = byte(int8(v))
	case Int16:
		binary.LittleEndian.PutUint16(p, uint16(int16(v)))
	case Int32:
		binary.LittleEndian.PutUint32(p, uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(p, uint64(int64(v)))
	case Float32:
		binary.LittleEndian.PutUint32(p, math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(p, math.Float64bits(v))
	case Complex64:
		binary.LittleEndian.PutUint32(p, math.Float32bits(float32(v)))
		binary.LittleEndian.PutUint32(p[4:], 0)
	case Complex128:
		binary.LittleEndian.PutUint64(p, math.Float64bits(v))
		binary.LittleEndian.PutUint64(p[8:], 0)
	default:
		panic("core: invalid element type in validated array")
	}
}

// SetIntAt stores v (converted to the array's element type) at linear
// element i.
func (a *Array) SetIntAt(i int, v int64) {
	switch a.hdr.Elem {
	case Float32, Float64, Complex64, Complex128:
		a.SetFloatAt(i, float64(v))
		return
	}
	p := a.buf[a.elemOffset(i):]
	switch a.hdr.Elem {
	case Int8:
		p[0] = byte(int8(v))
	case Int16:
		binary.LittleEndian.PutUint16(p, uint16(int16(v)))
	case Int32:
		binary.LittleEndian.PutUint32(p, uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(p, uint64(v))
	default:
		panic("core: invalid element type in validated array")
	}
}

// SetComplexAt stores v at linear element i. For real element types the
// imaginary part is discarded.
func (a *Array) SetComplexAt(i int, v complex128) {
	switch a.hdr.Elem {
	case Complex64:
		p := a.buf[a.elemOffset(i):]
		binary.LittleEndian.PutUint32(p, math.Float32bits(float32(real(v))))
		binary.LittleEndian.PutUint32(p[4:], math.Float32bits(float32(imag(v))))
	case Complex128:
		p := a.buf[a.elemOffset(i):]
		binary.LittleEndian.PutUint64(p, math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(imag(v)))
	default:
		a.SetFloatAt(i, real(v))
	}
}

// Item returns the element at a multi-dimensional index as float64,
// mirroring the T-SQL Item_N functions.
func (a *Array) Item(idx ...int) (float64, error) {
	lin, err := a.hdr.LinearIndex(idx)
	if err != nil {
		return 0, err
	}
	return a.FloatAt(lin), nil
}

// ItemComplex returns the element at a multi-dimensional index as
// complex128.
func (a *Array) ItemComplex(idx ...int) (complex128, error) {
	lin, err := a.hdr.LinearIndex(idx)
	if err != nil {
		return 0, err
	}
	return a.ComplexAt(lin), nil
}

// ItemInt returns the element at a multi-dimensional index as int64.
func (a *Array) ItemInt(idx ...int) (int64, error) {
	lin, err := a.hdr.LinearIndex(idx)
	if err != nil {
		return 0, err
	}
	return a.IntAt(lin), nil
}

// UpdateItem stores v at a multi-dimensional index, mirroring the T-SQL
// UpdateItem_N functions. Unlike T-SQL (which is value-oriented and
// returns a new blob) this mutates in place; use Clone first for
// value semantics.
func (a *Array) UpdateItem(v float64, idx ...int) error {
	lin, err := a.hdr.LinearIndex(idx)
	if err != nil {
		return err
	}
	a.SetFloatAt(lin, v)
	return nil
}

// UpdateItemComplex stores a complex value at a multi-dimensional index.
func (a *Array) UpdateItemComplex(v complex128, idx ...int) error {
	lin, err := a.hdr.LinearIndex(idx)
	if err != nil {
		return err
	}
	a.SetComplexAt(lin, v)
	return nil
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	buf := append([]byte(nil), a.buf...)
	h := a.hdr
	h.Dims = append([]int(nil), a.hdr.Dims...)
	return &Array{hdr: h, buf: buf}
}

// Equal reports whether two arrays have identical class, element type,
// shape and payload bytes.
func (a *Array) Equal(b *Array) bool {
	if a.hdr.Class != b.hdr.Class || a.hdr.Elem != b.hdr.Elem || len(a.hdr.Dims) != len(b.hdr.Dims) {
		return false
	}
	for i := range a.hdr.Dims {
		if a.hdr.Dims[i] != b.hdr.Dims[i] {
			return false
		}
	}
	ap, bp := a.Payload(), b.Payload()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return true
}
