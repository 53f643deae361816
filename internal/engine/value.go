// Package engine implements a miniature relational engine with just
// enough machinery to reproduce the paper's evaluation: catalogued tables
// clustered on a BIGINT key, page-at-a-time clustered index scans over the
// B+tree, inline VARBINARY(8000) and out-of-page VARBINARY(MAX) columns,
// scalar aggregation, and — centrally — a user-defined-function boundary
// that charges the same serialization costs the SQL Server CLR hosting
// layer charges (§3.2, §4, §7.1 of the paper).
package engine

import (
	"errors"
	"fmt"
)

// ColType enumerates the column types the engine supports; the set is
// what the paper's test schema needs (BIGINT ids, FLOAT scalar columns,
// VARBINARY(8000) short arrays, VARBINARY(MAX) max arrays).
type ColType uint8

const (
	ColInt64 ColType = iota + 1
	ColFloat64
	ColVarBinary    // inline, <= 8000 bytes (short arrays live here)
	ColVarBinaryMax // out-of-page blob reference (max arrays live here)

	// ColMaxRef is not a column type: it is the UDF-boundary kind of a
	// VARBINARY(MAX) column value handed to an array function
	// (FuncDef.ArrayFn) as what the row stores, its 12-byte blob ref,
	// instead of its payload. The function reads the array through an
	// ArrayReader bound to the statement's snapshot.
	ColMaxRef
)

// String returns the T-SQL name of the column type.
func (t ColType) String() string {
	switch t {
	case ColInt64:
		return "BIGINT"
	case ColFloat64:
		return "FLOAT"
	case ColVarBinary:
		return "VARBINARY(8000)"
	case ColVarBinaryMax:
		return "VARBINARY(MAX)"
	case ColMaxRef:
		return "VARBINARY(MAX) ref"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Errors returned by the engine.
var (
	ErrNoTable     = errors.New("engine: no such table")
	ErrNoColumn    = errors.New("engine: no such column")
	ErrNoFunc      = errors.New("engine: no such function")
	ErrTypeError   = errors.New("engine: type error")
	ErrTableExists = errors.New("engine: table already exists")
	errRowTooWide  = errors.New("engine: row exceeds page capacity")
	ErrNullValue   = errors.New("engine: unexpected NULL")
)

// Value is a runtime SQL value: a tagged union of the supported types
// plus NULL. The zero Value is NULL.
type Value struct {
	Kind ColType // 0 = NULL
	I    int64
	F    float64
	B    []byte
}

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == 0 }

// IntValue builds a BIGINT value.
func IntValue(i int64) Value { return Value{Kind: ColInt64, I: i} }

// FloatValue builds a FLOAT value.
func FloatValue(f float64) Value { return Value{Kind: ColFloat64, F: f} }

// BinaryValue builds a VARBINARY value (inline).
func BinaryValue(b []byte) Value { return Value{Kind: ColVarBinary, B: b} }

// BinaryMaxValue builds a VARBINARY(MAX) value.
func BinaryMaxValue(b []byte) Value { return Value{Kind: ColVarBinaryMax, B: b} }

// AsFloat coerces numeric values to float64 (SQL implicit conversion).
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case ColFloat64:
		return v.F, nil
	case ColInt64:
		return float64(v.I), nil
	case 0:
		return 0, ErrNullValue
	}
	return 0, fmt.Errorf("%w: %v is not numeric", ErrTypeError, v.Kind)
}

// AsInt coerces numeric values to int64.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case ColInt64:
		return v.I, nil
	case ColFloat64:
		return int64(v.F), nil
	case 0:
		return 0, ErrNullValue
	}
	return 0, fmt.Errorf("%w: %v is not numeric", ErrTypeError, v.Kind)
}

// AsBinary returns the value's bytes for either VARBINARY kind.
func (v Value) AsBinary() ([]byte, error) {
	switch v.Kind {
	case ColVarBinary, ColVarBinaryMax:
		return v.B, nil
	case 0:
		return nil, ErrNullValue
	}
	return nil, fmt.Errorf("%w: %v is not binary", ErrTypeError, v.Kind)
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case 0:
		return "NULL"
	case ColInt64:
		return fmt.Sprint(v.I)
	case ColFloat64:
		return fmt.Sprint(v.F)
	case ColVarBinary, ColVarBinaryMax:
		return fmt.Sprintf("0x<%d bytes>", len(v.B))
	case ColMaxRef:
		return "<blob ref>"
	}
	return "?"
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list. The first ColInt64 column is the
// clustered key by convention unless KeyColumn overrides it.
type Schema struct {
	Columns []Column
	Key     int // index of the clustered key column (must be ColInt64)
}

// NewSchema builds a schema clustered on the first column, which must be
// ColInt64.
func NewSchema(cols ...Column) (Schema, error) {
	if len(cols) == 0 {
		return Schema{}, errors.New("engine: empty schema")
	}
	if cols[0].Type != ColInt64 {
		return Schema{}, fmt.Errorf("%w: clustered key column %q must be BIGINT",
			ErrTypeError, cols[0].Name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" {
			return Schema{}, errors.New("engine: empty column name")
		}
		if seen[c.Name] {
			return Schema{}, fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return Schema{Columns: cols, Key: 0}, nil
}

// ColIndex finds a column by (case-sensitive) name, returning -1 if
// absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}
