// Package engine mocks the snapshot cursor constructors.
package engine

type Snapshot struct{}

type Cursor struct{}

func (c *Cursor) Next() bool { return false }
func (c *Cursor) Close()     {}

type Table struct{}

func (t *Table) CursorRangeAt(s *Snapshot, lo, hi int64) (*Cursor, error) {
	return &Cursor{}, nil
}
