package engine

import "sqlarray/internal/btree"

// Cursor streams a table's rows in clustered-key order without
// materializing them — the engine half of the Volcano executor. It wraps
// the B+tree leaf iterator and decodes rows lazily through a reused
// RowView:
//
//	cur, err := tbl.CursorAt(snap)
//	for cur.Next() {
//	    key, row := cur.Key(), cur.Row()
//	}
//	err = cur.Err()
//	cur.Close()
//
// Row (and any binary Values decoded from it) aliases the pinned leaf
// page and is only valid until the next call to Next or Close; copy to
// retain. Close must always be called: it releases the pinned page, and
// early termination (TOP n) would otherwise leak a pin and wedge
// DropCleanBuffers.
//
// A cursor reads through the Snapshot it was opened on and never owns
// it: the caller Releases the snapshot after closing every cursor on
// it. Cursors never latch the table: the snapshot pins the committed
// state as of open, so concurrent DML commits do not block the scan and
// the scan does not block them.
type Cursor struct {
	it     *btree.Iterator
	schema *Schema
	rv     RowView
}

// Next advances to the next row, returning false at the end of the range
// or on error (check Err).
func (c *Cursor) Next() bool {
	if !c.it.Next() {
		return false
	}
	c.rv.reset(c.schema, c.it.Value())
	return true
}

// FillBatch advances the cursor through up to max rows, invoking fn for
// each one — the engine half of batch-at-a-time execution. It drives the
// B+tree leaf iterator directly, so a batch fill walks leaf runs without
// crossing the Cursor interface per row. The RowView passed to fn is
// reused and aliases the pinned leaf page: fn must copy anything it
// keeps. It returns the number of rows consumed; fewer than max means
// the range is exhausted (or fn failed — check the error). FillBatch and
// Next may be interleaved freely; both advance the same scan position.
func (c *Cursor) FillBatch(max int, fn func(key int64, row *RowView) error) (int, error) {
	n := 0
	for n < max && c.it.Next() {
		c.rv.reset(c.schema, c.it.Value())
		if err := fn(c.it.Key(), &c.rv); err != nil {
			return n, err
		}
		n++
	}
	return n, c.it.Err()
}

// Key returns the current row's clustered key.
func (c *Cursor) Key() int64 { return c.it.Key() }

// Row returns the current row view, valid until the next Next or Close.
func (c *Cursor) Row() *RowView { return &c.rv }

// Err returns the first error encountered while scanning.
func (c *Cursor) Err() error { return c.it.Err() }

// Close releases the cursor's pinned page. Safe to call twice.
func (c *Cursor) Close() { c.it.Close() }
