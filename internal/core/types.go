// Package core implements the array data type at the heart of the sqlarray
// library: a binary blob format consisting of a small header (storage class,
// element type, rank, element count, dimension sizes) followed by the
// elements in column-major order, exactly as described in §3.5 of Dobos et
// al., "Array Requirements for Scientific Applications and an Implementation
// for Microsoft SQL Server" (EDBT 2011).
//
// Two storage classes exist, mirroring SQL Server's on-page versus
// out-of-page blob handling (§3.3 of the paper): short arrays fit into an
// 8 kB data page (VARBINARY(8000), at most 6 dimensions, 16-bit dimension
// sizes) while max arrays may be arbitrarily large (VARBINARY(MAX), any
// rank, 32-bit dimension sizes) and are normally stored out-of-page behind
// a stream wrapper that supports partial reads.
package core

import (
	"errors"
	"fmt"
)

// ElemType identifies the primitive element type stored in an array.
// The set matches the paper's §3.4: signed integers of 1/2/4/8 bytes,
// float and double, plus float and double complex.
type ElemType uint8

// Supported element types. The zero value is invalid so that an
// all-zero header never validates.
const (
	Int8 ElemType = iota + 1
	Int16
	Int32
	Int64
	Float32
	Float64
	Complex64
	Complex128

	numElemTypes = iota + 1
)

var elemSizes = [numElemTypes]int{
	Int8: 1, Int16: 2, Int32: 4, Int64: 8,
	Float32: 4, Float64: 8, Complex64: 8, Complex128: 16,
}

var elemNames = [numElemTypes]string{
	Int8: "tinyint", Int16: "smallint", Int32: "int", Int64: "bigint",
	Float32: "real", Float64: "float", Complex64: "complex", Complex128: "doublecomplex",
}

// Valid reports whether t is one of the supported element types.
func (t ElemType) Valid() bool { return t >= Int8 && t <= Complex128 }

// Size returns the element width in bytes.
func (t ElemType) Size() int {
	if !t.Valid() {
		return 0
	}
	return elemSizes[t]
}

// String returns the T-SQL-flavoured name of the type (e.g. "float" for
// a 64-bit floating point number, following SQL Server conventions).
func (t ElemType) String() string {
	if !t.Valid() {
		return fmt.Sprintf("ElemType(%d)", uint8(t))
	}
	return elemNames[t]
}

// IsInteger reports whether t is a signed integer type.
func (t ElemType) IsInteger() bool { return t >= Int8 && t <= Int64 }

// IsFloat reports whether t is a real floating point type.
func (t ElemType) IsFloat() bool { return t == Float32 || t == Float64 }

// IsComplex reports whether t is a complex type.
func (t ElemType) IsComplex() bool { return t == Complex64 || t == Complex128 }

// StorageClass distinguishes the paper's two array flavours.
type StorageClass uint8

const (
	// Short arrays fit on a database page and are stored in fixed-size
	// binary columns (VARBINARY(8000)).
	Short StorageClass = 0
	// Max arrays are stored out-of-page as B-trees (VARBINARY(MAX)) and
	// accessed through a stream wrapper.
	Max StorageClass = 1
)

// String returns "short" or "max".
func (c StorageClass) String() string {
	if c == Short {
		return "short"
	}
	return "max"
}

// Format and size limits, mirroring §3.3/§3.5 of the paper.
const (
	// magic is the first byte of every serialized array.
	magic = 0xAB
	// formatVersion is the header version emitted by this library.
	formatVersion = 1

	// shortHeaderSize is the fixed header length of short arrays (§3.5:
	// "In case of short arrays the header is 24 bytes long").
	shortHeaderSize = 24
	// maxFixedHeaderSize is the fixed prefix of a max-array header; the
	// full header adds 4 bytes per dimension.
	maxFixedHeaderSize = 16

	// maxShortBytes is the VARBINARY(8000) limit: a short array,
	// including its header, must fit into a SQL Server data page.
	maxShortBytes = 8000
	// maxShortRank is the dimension limit of short arrays ("Short arrays
	// have the limit of only six indices").
	maxShortRank = 6
	// maxShortDim is the largest dimension size of a short array
	// ("indices are Int16").
	maxShortDim = 1<<15 - 1
	// maxMaxDim is the largest dimension size of a max array ("the index
	// type is Int32").
	maxMaxDim = 1<<31 - 1
)

// Sentinel errors returned by the core package. Callers should match with
// errors.Is; all errors are wrapped with contextual detail.
var (
	ErrBadHeader     = errors.New("core: malformed array header")
	ErrTypeMismatch  = errors.New("core: element type mismatch")
	ErrClassMismatch = errors.New("core: storage class mismatch")
	ErrRank          = errors.New("core: bad rank")
	ErrBounds        = errors.New("core: index out of bounds")
	ErrShape         = errors.New("core: shape mismatch")
	errTooLarge      = errors.New("core: array exceeds storage class limit")
	ErrTruncated     = errors.New("core: buffer shorter than declared payload")
)
