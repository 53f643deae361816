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

// RowView is a lazily-decoded row image. Column accessors decode in a
// single forward pass cached per row, so a scan that touches only
// column 0 never pays for the rest.
type RowView struct {
	schema *Schema
	raw    []byte
	// offs[i] is the byte offset of column i's null flag; computed on
	// first access past the current frontier.
	offs    []int
	decoded int // number of entries valid in offs
}

// resetRowView re-targets a view at a new raw row, reusing the offsets
// slice (scans allocate one view for the whole pass).
func (r *RowView) reset(s *Schema, raw []byte) {
	r.schema = s
	r.raw = raw
	if cap(r.offs) < len(s.Columns) {
		r.offs = make([]int, len(s.Columns))
	}
	r.offs = r.offs[:len(s.Columns)]
	r.offs[0] = 0
	r.decoded = 1
}

// advanceTo ensures offs[i] is computed.
func (r *RowView) advanceTo(i int) error {
	for r.decoded <= i {
		k := r.decoded - 1 // last known column
		off := r.offs[k]
		if off >= len(r.raw) {
			return fmt.Errorf("engine: row truncated at column %d", k)
		}
		null := r.raw[off] == 1
		off++
		if !null {
			switch r.schema.Columns[k].Type {
			case ColInt64, ColFloat64:
				off += 8
			case ColVarBinary:
				if off+2 > len(r.raw) {
					return fmt.Errorf("engine: row truncated in column %d", k)
				}
				off += 2 + int(binary.LittleEndian.Uint16(r.raw[off:]))
			case ColVarBinaryMax:
				off += blob.RefSize
			}
		}
		r.offs[r.decoded] = off
		r.decoded++
	}
	return nil
}

// Col decodes column i. VARBINARY values alias the row buffer (valid only
// while the underlying page is pinned, i.e. within the scan callback);
// VARBINARY(MAX) yields the 12-byte ref — use Table.ResolveMaxAt to load it.
func (r *RowView) Col(i int) (Value, error) {
	if i < 0 || i >= len(r.schema.Columns) {
		return Null, fmt.Errorf("%w: index %d", ErrNoColumn, i)
	}
	if err := r.advanceTo(i); err != nil {
		return Null, err
	}
	off := r.offs[i]
	if off >= len(r.raw) {
		return Null, fmt.Errorf("engine: row truncated at column %d", i)
	}
	if r.raw[off] == 1 {
		return Null, nil
	}
	off++
	c := r.schema.Columns[i]
	switch c.Type {
	case ColInt64:
		return IntValue(int64(binary.LittleEndian.Uint64(r.raw[off:]))), nil
	case ColFloat64:
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(r.raw[off:]))), nil
	case ColVarBinary:
		n := int(binary.LittleEndian.Uint16(r.raw[off:]))
		return BinaryValue(r.raw[off+2 : off+2+n]), nil
	case ColVarBinaryMax:
		return BinaryMaxValue(r.raw[off : off+blob.RefSize]), nil
	}
	return Null, fmt.Errorf("%w: column %d type %v", ErrTypeError, i, c.Type)
}

// decodeRowInto decodes one row image in a single forward pass, storing
// column ci as row i of cols[ci] for every non-nil entry and stopping
// after the last entry. Binary values are copied into the vector. It
// returns the out-of-row bytes the stored VARBINARY(MAX) refs address.
func decodeRowInto(s *Schema, raw []byte, cols []*Vector, i int) (uint64, error) {
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
				referenced += binary.LittleEndian.Uint64(raw[off+4:]) // blob.Ref's length
				fallthrough
			default:
				v.B[i] = v.hold(raw[off : off+size])
			}
		}
		off += size
	}
	return referenced, nil
}

// Raw returns the undecoded row image.
func (r *RowView) Raw() []byte { return r.raw }
