package engine

import (
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvSource feeds a bulk load from CSV text: one row per record, fields
// in schema order, no header line. It reads and parses one record per
// Next into one reused row; the loader copies every row into its arena
// (BulkSource's contract), so the source keeps nothing per row.
type csvSource struct {
	r      *csv.Reader
	schema *Schema
	row    []Value
	bufs   [][]byte // per-column decoded bytes, reused
	hex    []byte   // the field being decoded, reused
}

// NewCSVSource returns a BulkSource that parses r record by record.
// Field syntax per column type: INT64 and FLOAT64 are parsed by
// strconv; VARBINARY and VARBINARY(MAX) are hex-encoded; an empty field
// is NULL. An error names the physical line of the field that failed.
func NewCSVSource(r io.Reader, schema *Schema) BulkSource {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = len(schema.Columns)
	return &csvSource{
		r:      cr,
		schema: schema,
		row:    make([]Value, len(schema.Columns)),
		bufs:   make([][]byte, len(schema.Columns)),
	}
}

// Next implements BulkSource.
func (s *csvSource) Next() ([]Value, error) {
	rec, err := s.r.Read()
	if err != nil {
		return nil, err // io.EOF, or a *csv.ParseError naming its line
	}
	for i, field := range rec {
		if err := s.parseField(i, field); err != nil {
			line, _ := s.r.FieldPos(i)
			return nil, fmt.Errorf("csv line %d: column %q: %w", line, s.schema.Columns[i].Name, err)
		}
	}
	return s.row, nil
}

// parseField parses field into s.row[i] per column i's type.
func (s *csvSource) parseField(i int, field string) error {
	if field == "" {
		s.row[i] = Null
		return nil
	}
	field = strings.TrimSpace(field)
	switch t := s.schema.Columns[i].Type; t {
	case ColInt64:
		n, err := strconv.ParseInt(field, 10, 64)
		s.row[i] = IntValue(n)
		return err
	case ColFloat64:
		f, err := strconv.ParseFloat(field, 64)
		s.row[i] = FloatValue(f)
		return err
	case ColVarBinary, ColVarBinaryMax:
		s.hex = append(s.hex[:0], field...)
		b, err := hex.AppendDecode(s.bufs[i][:0], s.hex)
		if err != nil {
			return err
		}
		s.bufs[i] = b
		if t == ColVarBinary {
			s.row[i] = BinaryValue(b)
		} else {
			s.row[i] = BinaryMaxValue(b)
		}
		return nil
	}
	return fmt.Errorf("unsupported type")
}
