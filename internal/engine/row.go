package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"sqlarray/internal/blob"
)

// Row wire format, per column in schema order:
//
//	1 byte  null flag (1 = NULL, no payload follows)
//	BIGINT / FLOAT: 8 bytes little-endian
//	VARBINARY(8000): uint16 length + bytes (inline — this is where short
//	  arrays live on-page, §3.3)
//	VARBINARY(MAX): 12-byte blob.Ref (the data lives out-of-page)
//
// The clustered key is additionally the B-tree key, so the row image is
// the leaf value and the key column is also encoded inline (keeping rows
// self-describing, like SQL Server's clustered leaf rows).

// encodeRow serializes vals (in schema order) into a fresh buffer of
// exactly the row's size. VARBINARY(MAX) values must already be
// converted to blob refs by the table layer; here they are 12-byte
// encoded refs carried in Value.B.
func encodeRow(s *Schema, vals []Value) ([]byte, error) {
	return appendRow(make([]byte, 0, rowSize(s, vals)), s, vals)
}

// rowSize is the encoded size of vals, for sizing a buffer; appendRow
// does the validation.
func rowSize(s *Schema, vals []Value) int {
	size := 0
	for i, c := range s.Columns {
		size++
		if i >= len(vals) || vals[i].IsNull() {
			continue
		}
		switch c.Type {
		case ColInt64, ColFloat64:
			size += 8
		case ColVarBinary:
			size += 2 + len(vals[i].B)
		case ColVarBinaryMax:
			size += blob.RefSize
		}
	}
	return size
}

// appendRow appends the row image of vals to dst and returns the
// extended buffer. On error dst's contents past its old length are
// unspecified.
func appendRow(dst []byte, s *Schema, vals []Value) ([]byte, error) {
	if len(vals) != len(s.Columns) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrTypeError, len(vals), len(s.Columns))
	}
	out := dst
	for i := range s.Columns {
		c, v := &s.Columns[i], &vals[i]
		if v.IsNull() {
			out = append(out, 1)
			continue
		}
		out = append(out, 0)
		switch c.Type {
		case ColInt64:
			n, err := v.AsInt()
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			out = binary.LittleEndian.AppendUint64(out, uint64(n))
		case ColFloat64:
			f, err := v.AsFloat()
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		case ColVarBinary:
			if v.Kind != ColVarBinary && v.Kind != ColVarBinaryMax {
				return nil, fmt.Errorf("column %q: %w: %v", c.Name, ErrTypeError, v.Kind)
			}
			if len(v.B) > 8000 {
				return nil, fmt.Errorf("%w: VARBINARY(8000) value of %d bytes", ErrTypeError, len(v.B))
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(len(v.B)))
			out = append(out, v.B...)
		case ColVarBinaryMax:
			if len(v.B) != blob.RefSize {
				return nil, fmt.Errorf("column %q: %w: MAX column wants a %d-byte ref, got %d",
					c.Name, ErrTypeError, blob.RefSize, len(v.B))
			}
			out = append(out, v.B...)
		default:
			return nil, fmt.Errorf("column %q: %w: %v", c.Name, ErrTypeError, c.Type)
		}
	}
	return out, nil
}

// decodeAll decodes every column of the row image raw in one forward
// pass, the point-read decoder (GetAt, UpdateTx, DeleteTx); scans decode
// through decodeRowInto. Binary values alias raw, and a VARBINARY(MAX)
// column yields its 12-byte blob ref. A column that runs past the end
// of raw fails the row; bytes after the last column are not looked at.
func decodeAll(s *Schema, raw []byte) ([]Value, error) {
	out := make([]Value, len(s.Columns))
	off := 0
	for ci := range out {
		if off >= len(raw) {
			return nil, fmt.Errorf("engine: row truncated at column %d", ci)
		}
		null := raw[off] == 1
		off++
		if null {
			continue
		}
		typ := s.Columns[ci].Type
		size := 8
		switch typ {
		case ColVarBinary:
			if off+2 > len(raw) {
				return nil, fmt.Errorf("engine: row truncated in column %d", ci)
			}
			size = int(binary.LittleEndian.Uint16(raw[off:]))
			off += 2
		case ColVarBinaryMax:
			size = blob.RefSize
		}
		if off+size > len(raw) {
			return nil, fmt.Errorf("engine: row truncated in column %d", ci)
		}
		b := raw[off : off+size : off+size]
		switch typ {
		case ColInt64:
			out[ci] = IntValue(int64(binary.LittleEndian.Uint64(b)))
		case ColFloat64:
			out[ci] = FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		case ColVarBinary:
			out[ci] = BinaryValue(b)
		case ColVarBinaryMax:
			out[ci] = BinaryMaxValue(b)
		default:
			return nil, fmt.Errorf("%w: column %d type %v", ErrTypeError, ci, typ)
		}
		off += size
	}
	return out, nil
}

// decodeRowInto decodes one row image in a single forward pass, storing
// column ci as row i of cols[ci] for every non-nil entry and stopping
// after the last entry. Binary values are copied into the vector. It
// returns the out-of-row bytes the stored VARBINARY(MAX) refs address,
// counting only the columns deref marks when it is non-nil.
func decodeRowInto(s *Schema, raw []byte, cols []*Vector, deref []bool, i int) (uint64, error) {
	off, referenced := 0, uint64(0)
	for ci, v := range cols {
		if off >= len(raw) {
			return 0, fmt.Errorf("engine: row truncated at column %d", ci)
		}
		null := raw[off] == 1
		off++
		if null {
			if v != nil {
				v.SetNull(i)
			}
			continue
		}
		size := 8
		switch s.Columns[ci].Type {
		case ColVarBinary:
			if off+2 > len(raw) {
				return 0, fmt.Errorf("engine: row truncated in column %d", ci)
			}
			size = int(binary.LittleEndian.Uint16(raw[off:]))
			off += 2
		case ColVarBinaryMax:
			size = blob.RefSize
		}
		if off+size > len(raw) {
			return 0, fmt.Errorf("engine: row truncated in column %d", ci)
		}
		if v != nil {
			switch s.Columns[ci].Type {
			case ColInt64:
				v.I[i] = int64(binary.LittleEndian.Uint64(raw[off:]))
			case ColFloat64:
				v.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			case ColVarBinaryMax:
				if deref == nil || deref[ci] {
					referenced += binary.LittleEndian.Uint64(raw[off+4:]) // blob.Ref's length
				}
				fallthrough
			default:
				v.B[i] = v.hold(raw[off : off+size])
			}
		}
		off += size
	}
	return referenced, nil
}
