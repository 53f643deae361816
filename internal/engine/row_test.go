package engine

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestDecodeAllRejectsTruncatedRows: every proper prefix of a row image
// fails to decode with a "row truncated" error, wherever it cuts — in a
// fixed-width value, a VARBINARY length or payload, a MAX ref, or just
// after a NULL flag — and never reads past the prefix into the spare
// capacity of the slice.
func TestDecodeAllRejectsTruncatedRows(t *testing.T) {
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
		Column{Name: "v", Type: ColVarBinary},
		Column{Name: "e", Type: ColVarBinary},
		Column{Name: "n", Type: ColFloat64},
		Column{Name: "big", Type: ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	vals := []Value{
		IntValue(42),
		FloatValue(3.25),
		BinaryValue([]byte{9, 8, 7}),
		BinaryValue([]byte{}),
		Null,
		BinaryMaxValue(bytes.Repeat([]byte{5}, 12)),
	}
	raw, err := encodeRow(&s, vals)
	if err != nil {
		t.Fatal(err)
	}
	row, err := decodeAll(&s, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if !sameBits(row[i], want) {
			t.Errorf("col %d = %v, want %v", i, row[i], want)
		}
	}
	for k := 0; k < len(raw); k++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("prefix %d of %d: panic: %v", k, len(raw), p)
				}
			}()
			if _, err := decodeAll(&s, raw[:k]); err == nil || !strings.Contains(err.Error(), "row truncated") {
				t.Errorf("prefix %d of %d: err = %v, want a truncated row", k, len(raw), err)
			}
		}()
	}
}

// sameBits reports whether two decoded values are identical: the same
// kind, binaries byte for byte, floats bit for bit.
func sameBits(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ColInt64:
		return a.I == b.I
	case ColFloat64:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case ColVarBinary, ColVarBinaryMax:
		return bytes.Equal(a.B, b.B)
	}
	return true
}

// fuzzSchema builds a schema of 1 to 6 columns from the leading bytes of
// data (a count, then one type byte per column) and returns it with the
// rest of data, the row image.
func fuzzSchema(data []byte) (*Schema, []byte, bool) {
	types := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	if len(data) == 0 {
		return nil, nil, false
	}
	n := 1 + int(data[0])%6
	if len(data) < 1+n {
		return nil, nil, false
	}
	s := &Schema{Columns: make([]Column, n)}
	for i, b := range data[1 : 1+n] {
		s.Columns[i] = Column{Name: string(rune('a' + i)), Type: types[int(b)%len(types)]}
	}
	return s, data[1+n:], true
}

// FuzzDecodeRow holds the two row decoders to one format: over any
// schema and any bytes, decodeAll (point reads) and decodeRowInto with
// every column requested (scans) decode the same values or both fail.
func FuzzDecodeRow(f *testing.F) {
	seed := func(types []byte, vals []Value) {
		s, _, _ := fuzzSchema(append([]byte{byte(len(types) - 1)}, types...))
		raw, err := encodeRow(s, vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(append([]byte{byte(len(types) - 1)}, types...), raw...))
	}
	ref := BinaryMaxValue(bytes.Repeat([]byte{7}, 12))
	seed([]byte{0}, []Value{IntValue(-1)})
	seed([]byte{0, 1, 2, 3}, []Value{IntValue(42), FloatValue(math.Copysign(0, -1)), BinaryValue([]byte("abc")), ref})
	seed([]byte{0, 2, 2, 1, 3, 0}, []Value{IntValue(1), BinaryValue([]byte{}), Null, Null, Null, IntValue(7)})
	seed([]byte{3, 1, 2}, []Value{ref, FloatValue(math.NaN()), BinaryValue(bytes.Repeat([]byte{1}, 300))})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, raw, ok := fuzzSchema(data)
		if !ok {
			return
		}
		row, errAll := decodeAll(s, raw)
		cols := make([]*Vector, len(s.Columns))
		for ci, c := range s.Columns {
			cols[ci] = new(Vector)
			cols[ci].Reset(c.Type, 1)
		}
		_, errInto := decodeRowInto(s, raw, cols, nil, 0)
		if (errAll == nil) != (errInto == nil) {
			t.Fatalf("decodeAll: %v, decodeRowInto: %v", errAll, errInto)
		}
		if errAll != nil {
			return
		}
		for ci, v := range cols {
			if got := v.Value(0); !sameBits(got, row[ci]) {
				t.Fatalf("col %d (%v): decodeRowInto %v, decodeAll %v", ci, s.Columns[ci].Type, got, row[ci])
			}
		}
	})
}
