package core

import (
	"testing"
)

// FuzzWrap drives blob decoding (DecodeHeader + payload validation) with
// arbitrary bytes. The invariants: Wrap never panics, the in-place
// ViewOf reaches the same verdict and reads the same elements, a Wrap
// that succeeds yields an array whose accessors are safe to call, and
// re-wrapping the array's own bytes round-trips.
func FuzzWrap(f *testing.F) {
	seed := func(a *Array, err error) {
		if err == nil {
			f.Add(a.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte{magic})
	seed(Vector(1, 2, 3, 4, 5), nil)
	f.Add(IntVector(7, 8, 9).Bytes())
	seed(Matrix(3, 4, make([]float64, 12)...))
	seed(New(Max, Float64, 5, 5, 5))
	seed(New(Max, Complex128, 2, 3))
	seed(New(Short, Int8, 6, 1, 2))
	seed(New(Short, Float32, 0))
	seed(New(Max, Float64, 134217728, 0, 0)) // no elements: Format must not walk dim 0
	// Truncated and corrupted variants of a valid blob.
	v := Vector(1, 2, 3).Bytes()
	f.Add(v[:len(v)-1])
	f.Add(v[:shortHeaderSize])
	corrupt := append([]byte(nil), v...)
	corrupt[2] = 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		checkViewAgainstWrap(t, b)
		a, err := Wrap(b)
		if err != nil {
			return
		}
		// The header validated: every size derived from it must be sane
		// and the element accessors in range.
		if a.Len() < 0 {
			t.Fatalf("Wrap accepted negative element count %d", a.Len())
		}
		h := a.Header()
		if got, want := len(a.Payload()), h.DataBytes(); got != want {
			t.Fatalf("payload %d bytes, header declares %d", got, want)
		}
		if a.Len() > 0 {
			_ = a.FloatAt(0)
			_ = a.IntAt(a.Len() - 1)
			_ = a.ComplexAt(0)
		}
		if a.Len() <= 1<<10 {
			if _, err := Parse(a.ElemType(), Format(a)); err != nil {
				t.Fatalf("Format output failed to parse back: %v", err)
			}
		}
		if _, err := Wrap(a.Bytes()); err != nil {
			t.Fatalf("re-wrap of validated bytes failed: %v", err)
		}
	})
}
