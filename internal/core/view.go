package core

import (
	"encoding/binary"
	"fmt"
)

// View is a serialized array read in place (validated, when it comes
// from ViewOf). Unlike Array it
// keeps no decoded Header — class, element type and dimension sizes are
// read from the blob when asked for — so making one allocates nothing
// and copying one copies a slice. It exists for the per-row element read
// (the T-SQL Item_N functions over a scanned column), where Wrap's
// header decode was most of the cost.
type View struct {
	b []byte // header + payload, validated
}

// ViewOf validates b as Wrap does and returns the in-place view of it.
// The view aliases b.
func ViewOf(b []byte) (View, error) {
	_, total, err := checkArray(b)
	if err != nil {
		return View{}, err
	}
	return View{b[:total]}, nil
}

// checkArray is checkHeader plus the payload: b must hold the whole
// array. It returns the header's length and the array's (header and
// payload).
func checkArray(b []byte) (n, total int, err error) {
	n, count, err := checkHeader(b)
	if err != nil {
		return 0, 0, err
	}
	data := count * ElemType(b[2]).Size()
	if len(b) < n+data {
		return 0, 0, fmt.Errorf("%w: need %d payload bytes, have %d", ErrTruncated, data, len(b)-n)
	}
	return n, n + data, nil
}

// header decodes the header bytes into a Header.
func (v View) header() Header {
	rank, _, dims := v.shape()
	h := Header{Class: v.Class(), Elem: v.ElemType(), Dims: make([]int, rank)}
	for k := range h.Dims {
		h.Dims[k] = dims.at(k)
	}
	return h
}

// shape reads the storage class once and returns the rank, the header
// length in bytes and the dimension sizes' fields.
func (v View) shape() (rank, hdr int, dims dimSizes) {
	if v.Class() == Short {
		return int(v.b[3]), shortHeaderSize, dimSizes{enc: v.b[8:], width: 2}
	}
	rank = int(binary.LittleEndian.Uint32(v.b[4:8]))
	return rank, maxFixedHeaderSize + 4*rank, dimSizes{enc: v.b[maxFixedHeaderSize:], width: 4}
}

// Class returns the storage class.
func (v View) Class() StorageClass { return StorageClass(v.b[1] & classFlagMask) }

// ElemType returns the element type.
func (v View) ElemType() ElemType { return ElemType(v.b[2]) }

// elemAt resolves a multi-dimensional index to the element's bytes, with
// Array.LinearIndex's checks and errors.
func (v View) elemAt(idx []int) ([]byte, error) {
	rank, hdr, dims := v.shape()
	if len(idx) != rank {
		return nil, fmt.Errorf("%w: got %d indices for rank-%d array", ErrRank, len(idx), rank)
	}
	lin, stride := 0, 1
	for k, i := range idx {
		d := dims.at(k)
		if i < 0 || i >= d {
			return nil, fmt.Errorf("%w: index %d = %d outside [0,%d)", ErrBounds, k, i, d)
		}
		lin += i * stride
		stride *= d
	}
	return v.b[hdr+lin*v.ElemType().Size():], nil
}

// Item returns the element at a multi-dimensional index as float64, as
// Array.Item does.
func (v View) Item(idx []int) (float64, error) {
	p, err := v.elemAt(idx)
	if err != nil {
		return 0, err
	}
	return loadFloat(v.ElemType(), p), nil
}

// ItemInt returns the element at a multi-dimensional index as int64, as
// Array.ItemInt does.
func (v View) ItemInt(idx []int) (int64, error) {
	p, err := v.elemAt(idx)
	if err != nil {
		return 0, err
	}
	return loadInt(v.ElemType(), p), nil
}
