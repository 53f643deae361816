package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeHeader is Header.Decode into a new Header.
func decodeHeader(b []byte) (Header, int, error) {
	var h Header
	n, err := h.Decode(b)
	return h, n, err
}

func TestHeaderShortRoundtrip(t *testing.T) {
	h := Header{Class: Short, Elem: Float64, Dims: []int{5, 3}}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := h.AppendEncode(nil)
	if len(b) != shortHeaderSize {
		t.Fatalf("short header size = %d, want %d", len(b), shortHeaderSize)
	}
	got, n, err := decodeHeader(b)
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if n != shortHeaderSize {
		t.Errorf("consumed %d bytes, want %d", n, shortHeaderSize)
	}
	if got.Class != Short || got.Elem != Float64 || got.Rank() != 2 ||
		got.Dims[0] != 5 || got.Dims[1] != 3 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
}

func TestHeaderMaxRoundtrip(t *testing.T) {
	dims := []int{100, 100, 100, 2, 3, 4, 5} // rank 7: impossible for short
	h := Header{Class: Max, Elem: Complex128, Dims: dims}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := h.AppendEncode(nil)
	if want := maxFixedHeaderSize + 4*len(dims); len(b) != want {
		t.Fatalf("max header size = %d, want %d", len(b), want)
	}
	got, _, err := decodeHeader(b)
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if got.Class != Max || got.Elem != Complex128 || got.Rank() != len(dims) {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	for i := range dims {
		if got.Dims[i] != dims[i] {
			t.Errorf("dim %d = %d, want %d", i, got.Dims[i], dims[i])
		}
	}
}

func TestHeaderRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		var h Header
		if rng.Intn(2) == 0 {
			rank := rng.Intn(maxShortRank + 1)
			dims := make([]int, rank)
			budget := maxShortBytes / 16
			for i := range dims {
				dims[i] = 1 + rng.Intn(8)
				budget /= dims[i] + 1
			}
			h = Header{Class: Short, Elem: ElemType(1 + rng.Intn(8)), Dims: dims}
			if h.Validate() != nil {
				return true // over-budget shapes are rejected, fine
			}
		} else {
			rank := rng.Intn(10)
			dims := make([]int, rank)
			for i := range dims {
				dims[i] = 1 + rng.Intn(16)
			}
			h = Header{Class: Max, Elem: ElemType(1 + rng.Intn(8)), Dims: dims}
		}
		b := h.AppendEncode(nil)
		got, n, err := decodeHeader(b)
		if err != nil || n != len(b) {
			return false
		}
		if got.Class != h.Class || got.Elem != h.Elem || got.Rank() != h.Rank() {
			return false
		}
		for i := range h.Dims {
			if got.Dims[i] != h.Dims[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidationFailures(t *testing.T) {
	cases := []struct {
		name string
		h    Header
		want error
	}{
		{"bad elem", Header{Class: Short, Elem: 0, Dims: []int{2}}, ErrBadHeader},
		{"short rank 7", Header{Class: Short, Elem: Float64, Dims: []int{1, 1, 1, 1, 1, 1, 1}}, ErrRank},
		{"short too large", Header{Class: Short, Elem: Float64, Dims: []int{2000}}, errTooLarge},
		{"short dim > int16", Header{Class: Short, Elem: Int8, Dims: []int{40000}}, ErrBadHeader},
		{"negative dim", Header{Class: Max, Elem: Float64, Dims: []int{-1}}, ErrBadHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.h.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeHeaderCorruption(t *testing.T) {
	h := Header{Class: Short, Elem: Float64, Dims: []int{4}}
	good := h.AppendEncode(nil)

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 0x00
		if _, _, err := decodeHeader(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[1] |= 0xF0
		if _, _, err := decodeHeader(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
	t.Run("bad elem type", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[2] = 200
		if _, _, err := decodeHeader(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
	t.Run("count mismatch", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[4] = 99 // declared count no longer matches dim product
		if _, _, err := decodeHeader(b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := decodeHeader(good[:3]); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, err := decodeHeader(nil); !errors.Is(err, ErrBadHeader) {
			t.Errorf("got %v, want ErrBadHeader", err)
		}
	})
}

func TestElemTypeProperties(t *testing.T) {
	for et := Int8; et <= Complex128; et++ {
		if !et.Valid() {
			t.Errorf("%v should be valid", et)
		}
		if et.Size() <= 0 {
			t.Errorf("%v size = %d", et, et.Size())
		}
	}
	if ElemType(0).Valid() || ElemType(9).Valid() {
		t.Error("out-of-range types must be invalid")
	}
	if !Complex64.IsComplex() || Complex64.IsInteger() || Complex64.IsFloat() {
		t.Error("complex64 classification wrong")
	}
	if !Int16.IsInteger() || Int16.IsFloat() || Int16.IsComplex() {
		t.Error("int16 classification wrong")
	}
	if !Float32.IsFloat() {
		t.Error("float32 classification wrong")
	}
}

func TestHeaderStringForm(t *testing.T) {
	h := Header{Class: Short, Elem: Float64, Dims: []int{5, 5}}
	if got := h.String(); got != "float[5x5] short" {
		t.Errorf("String() = %q", got)
	}
}
