package engine

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randValue draws a random value legal for the column type (including
// NULLs).
func randValue(rng *rand.Rand, t ColType) Value {
	if rng.Intn(5) == 0 {
		return Null
	}
	switch t {
	case ColInt64:
		return IntValue(rng.Int63() - rng.Int63())
	case ColFloat64:
		return FloatValue(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
	case ColVarBinary:
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		return BinaryValue(b)
	case ColVarBinaryMax:
		b := make([]byte, 12) // refs are fixed-size at the row layer
		rng.Read(b)
		return BinaryMaxValue(b)
	}
	return Null
}

// TestRowCodecRoundtripProperty: encode/decode with random schemas and
// values is the identity.
func TestRowCodecRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	types := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	f := func() bool {
		ncols := 1 + rng.Intn(8)
		cols := make([]Column, ncols)
		cols[0] = Column{Name: "id", Type: ColInt64}
		for i := 1; i < ncols; i++ {
			cols[i] = Column{Name: string(rune('a' + i)), Type: types[rng.Intn(len(types))]}
		}
		schema, err := NewSchema(cols...)
		if err != nil {
			return false
		}
		vals := make([]Value, ncols)
		vals[0] = IntValue(rng.Int63n(1 << 40)) // key must not be NULL
		for i := 1; i < ncols; i++ {
			vals[i] = randValue(rng, cols[i].Type)
		}
		raw, err := encodeRow(&schema, vals)
		if err != nil {
			return false
		}
		row, err := decodeAll(&schema, raw)
		if err != nil {
			return false
		}
		for i, got := range row {
			want := vals[i]
			if got.IsNull() != want.IsNull() {
				return false
			}
			if want.IsNull() {
				continue
			}
			switch cols[i].Type {
			case ColInt64:
				w, _ := want.AsInt()
				if got.I != w {
					return false
				}
			case ColFloat64:
				w, _ := want.AsFloat()
				if got.F != w && !(math.IsNaN(got.F) && math.IsNaN(w)) {
					return false
				}
			case ColVarBinary, ColVarBinaryMax:
				if !bytes.Equal(got.B, want.B) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryMarshalRoundtripProperty: values crossing the UDF
// boundary arrive intact, including NULLs and empty binaries.
func TestBoundaryMarshalRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	types := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	f := func() bool {
		n := rng.Intn(6)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = randValue(rng, types[rng.Intn(len(types))])
		}
		var buf []byte
		for _, v := range vals {
			buf = marshalValue(buf, v)
		}
		rest := buf
		for _, want := range vals {
			var got Value
			var err error
			rest, err = unmarshalValue(rest, &got)
			if err != nil {
				return false
			}
			if got.IsNull() != want.IsNull() {
				return false
			}
			if want.IsNull() {
				continue
			}
			switch want.Kind {
			case ColInt64:
				if got.I != want.I {
					return false
				}
			case ColFloat64:
				if got.F != want.F && !(math.IsNaN(got.F) && math.IsNaN(want.F)) {
					return false
				}
			default:
				if !bytes.Equal(got.B, want.B) {
					return false
				}
			}
		}
		return len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryTruncationDetected: every strict prefix of a marshaled
// stream fails to decode cleanly rather than yielding garbage.
func TestBoundaryTruncationDetected(t *testing.T) {
	vals := []Value{IntValue(7), FloatValue(2.5), BinaryValue([]byte{1, 2, 3, 4})}
	var buf []byte
	for _, v := range vals {
		buf = marshalValue(buf, v)
	}
	for cut := 1; cut < len(buf); cut++ {
		rest := buf[:cut]
		bad := false
		for len(rest) > 0 {
			var err error
			var v Value
			rest, err = unmarshalValue(rest, &v)
			if err != nil {
				bad = true
				break
			}
		}
		// Cuts landing exactly on a value boundary legitimately decode a
		// shorter argument list; every other cut must error.
		if !bad && cut != 9 && cut != 18 {
			t.Errorf("truncation at %d went undetected", cut)
		}
	}
}

// TestTableInsertScanProperty: a batch of random rows inserted into a
// real table scans back in key order with identical contents.
func TestTableInsertScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := memDB(t)
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
		Column{Name: "b", Type: ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("prop", s)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64][2]any{}
	for len(ref) < 3000 {
		key := rng.Int63n(1 << 32)
		if _, dup := ref[key]; dup {
			continue
		}
		x := rng.NormFloat64()
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if err := tbl.Insert([]Value{IntValue(key), FloatValue(x), BinaryValue(b)}); err != nil {
			t.Fatal(err)
		}
		ref[key] = [2]any{x, append([]byte(nil), b...)}
	}
	prev := int64(math.MinInt64)
	seen := 0
	err = scanRows(tbl, func(key int64, row []Value) (bool, error) {
		if key <= prev {
			t.Fatalf("scan out of order: %d after %d", key, prev)
		}
		prev = key
		want, ok := ref[key]
		if !ok {
			t.Fatalf("unknown key %d", key)
		}
		if xv := row[1]; xv.F != want[0].(float64) {
			t.Fatalf("key %d float mismatch", key)
		}
		if bv := row[2]; !bytes.Equal(bv.B, want[1].([]byte)) {
			t.Fatalf("key %d binary mismatch", key)
		}
		seen++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(ref) {
		t.Fatalf("scanned %d of %d rows", seen, len(ref))
	}
}
