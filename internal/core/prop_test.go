package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Property-based tests over randomized shapes and element types: the
// algebraic identities the array calculus promises (§5.1) must hold for
// every shape, not just the hand-picked cases in the unit tests.

var propElemTypes = []ElemType{
	Int8, Int16, Int32, Int64, Float32, Float64, Complex64, Complex128,
}

// randomArray builds an array with rank 0..4, dimensions 1..6 and
// random elements representable in the element type (integers stay
// within int8 range so every narrower type round-trips exactly).
func randomArray(rng *rand.Rand) *Array {
	et := propElemTypes[rng.Intn(len(propElemTypes))]
	rank := rng.Intn(5)
	dims := make([]int, rank)
	for i := range dims {
		dims[i] = 1 + rng.Intn(6)
	}
	a, err := NewAuto(et, dims...)
	if err != nil {
		panic(err)
	}
	for i := 0; i < a.Len(); i++ {
		switch {
		case et.IsInteger():
			a.SetIntAt(i, int64(rng.Intn(256)-128))
		case et.IsComplex():
			a.SetComplexAt(i, complex(rng.NormFloat64(), rng.NormFloat64()))
		default:
			a.SetFloatAt(i, rng.NormFloat64())
		}
	}
	return a
}

// TestPropSubarrayComposition: extracting a subarray of a subarray is
// the same as extracting once with composed offsets —
// a.Subarray(o1, s1).Subarray(o2, s2) == a.Subarray(o1+o2, s2).
func TestPropSubarrayComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		a := randomArray(rng)
		if a.Rank() == 0 {
			continue
		}
		rank := a.Rank()
		o1, s1 := make([]int, rank), make([]int, rank)
		o2, s2 := make([]int, rank), make([]int, rank)
		composed := make([]int, rank)
		for k := 0; k < rank; k++ {
			d := a.Dim(k)
			o1[k] = rng.Intn(d)
			s1[k] = 1 + rng.Intn(d-o1[k])
			o2[k] = rng.Intn(s1[k])
			s2[k] = 1 + rng.Intn(s1[k]-o2[k])
			composed[k] = o1[k] + o2[k]
		}
		outer, err := a.Subarray(o1, s1, false)
		if err != nil {
			t.Fatalf("iter %d: outer subarray %v/%v of %v: %v", iter, o1, s1, a.Dims(), err)
		}
		inner, err := outer.Subarray(o2, s2, false)
		if err != nil {
			t.Fatalf("iter %d: inner subarray %v/%v of %v: %v", iter, o2, s2, outer.Dims(), err)
		}
		direct, err := a.Subarray(composed, s2, false)
		if err != nil {
			t.Fatalf("iter %d: composed subarray %v/%v of %v: %v", iter, composed, s2, a.Dims(), err)
		}
		if !inner.Equal(direct) {
			t.Fatalf("iter %d: Subarray(%v,%v)∘Subarray(%v,%v) != Subarray(%v,%v) on %v",
				iter, o1, s1, o2, s2, composed, s2, a.Dims())
		}
	}
}

// TestPropReshapeRoundTrip: reshaping to any factorization of the
// element count and back reproduces the original array bit for bit.
func TestPropReshapeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		a := randomArray(rng)
		// Random re-factorization of the element count: peel random
		// divisors (>= 2) off n, capped at rank 6 so the intermediate
		// shape stays legal for the original storage class — Reshape
		// promotes Short to Max past rank 6 and never demotes, which
		// would (correctly) break bit-identity of the headers.
		n := a.Len()
		var dims []int
		rest := n
		for rest > 1 && len(dims) < 5 {
			d := 2 + rng.Intn(rest-1)
			for rest%d != 0 {
				d--
			}
			if d < 2 {
				break
			}
			dims = append(dims, d)
			rest /= d
		}
		if rest > 1 || len(dims) == 0 {
			dims = append(dims, rest)
		}
		mid, err := a.Reshape(dims...)
		if err != nil {
			t.Fatalf("iter %d: reshape %v -> %v: %v", iter, a.Dims(), dims, err)
		}
		if !bytes.Equal(mid.Payload(), a.Payload()) {
			t.Fatalf("iter %d: reshape %v -> %v changed the payload", iter, a.Dims(), dims)
		}
		back, err := mid.Reshape(a.Dims()...)
		if err != nil {
			t.Fatalf("iter %d: reshape back %v -> %v: %v", iter, dims, a.Dims(), err)
		}
		if !back.Equal(a) {
			t.Fatalf("iter %d: reshape round-trip %v -> %v -> %v lost the array",
				iter, a.Dims(), dims, a.Dims())
		}
	}
}

// TestPropParseFormatIdentity: Parse is the exact inverse of Format for
// every shape and element type (floats print in shortest round-trip
// form, so even random doubles survive the text round trip exactly).
func TestPropParseFormatIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		a := randomArray(rng)
		s := Format(a)
		b, err := Parse(a.ElemType(), s)
		if err != nil {
			t.Fatalf("iter %d: Parse(Format(%v %v)) = %q: %v", iter, a.ElemType(), a.Dims(), s, err)
		}
		if !b.Equal(a) {
			t.Fatalf("iter %d: Parse∘Format not identity for %v %v: %q", iter, a.ElemType(), a.Dims(), s)
		}
	}
}

// TestDecodeHeaderCountOverflow pins the hardening FuzzWrap relies on: a
// max-class header whose dimension product overflows (with the declared
// count matching the wrapped product) must be rejected, not wrapped into
// a tiny bogus payload size.
func TestDecodeHeaderCountOverflow(t *testing.T) {
	dims := []uint32{1 << 31 / 2, 1 << 31 / 2, 1 << 31 / 2} // product 2^90, wraps
	wrapped := 1
	for _, d := range dims {
		wrapped *= int(d)
	}
	b := make([]byte, maxFixedHeaderSize+4*len(dims))
	b[0] = magic
	b[1] = byte(Max) | formatVersion<<4
	b[2] = byte(Float64)
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(dims)))
	binary.LittleEndian.PutUint64(b[8:16], uint64(wrapped))
	for i, d := range dims {
		binary.LittleEndian.PutUint32(b[maxFixedHeaderSize+4*i:], d)
	}
	if _, _, err := decodeHeader(b); !errors.Is(err, errTooLarge) && !errors.Is(err, ErrBadHeader) {
		t.Fatalf("DecodeHeader on overflowing dims = %v, want count-overflow rejection", err)
	}
	if _, err := Wrap(b); err == nil {
		t.Fatal("Wrap accepted a header whose element count overflows")
	}
	// A header at the cap itself must still validate.
	h := Header{Class: Max, Elem: Float64, Dims: []int{1 << 20, 1 << 10}}
	if err := h.Validate(); err != nil {
		t.Fatalf("validate of large-but-sane header: %v", err)
	}
	if math.MaxInt64/16 < int64(maxElements) {
		t.Fatalf("maxElements %d leaves no headroom for 16-byte elements", maxElements)
	}
}
