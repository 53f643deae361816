package engine

import "sqlarray/internal/btree"

// Cursor streams a table's rows in clustered-key order without
// materializing them — the engine half of the batch executor. It wraps
// the B+tree leaf iterator; FillBatch decodes the rows it passes into
// column vectors, and Next and Key walk the keys alone:
//
//	cur, err := tbl.CursorRangeAt(snap, lo, hi)
//	defer cur.Close()
//	for {
//	    n, err := cur.FillBatch(keys, cols, nil)
//	    if n == 0 || err != nil {
//	        break
//	    }
//	    // rows 0..n-1 of keys and cols
//	}
//
// Close must always be called: it releases the pinned leaf page, and
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
	tree   btree.Tree // the snapshot's tree it walks (not set when empty)
}

// Next advances to the next row, returning false at the end of the range
// or on error (check Err).
func (c *Cursor) Next() bool { return c.it.Next() }

// maxBatchBlobBytes bounds the out-of-row bytes one batch may reference
// through the VARBINARY(MAX) columns its reader dereferences. The
// executor materializes those columns for the whole batch before an
// operator or a UDF sees them, so this — not the row capacity — is what
// keeps a scan over large arrays from holding a batch's worth of them in
// memory at once. A column that only passes its refs on (an array
// function's first argument) holds 12 bytes a row and is not counted.
const maxBatchBlobBytes = 1 << 20

// FillBatch decodes the next rows of the scan straight into column
// vectors, the engine half of batch-at-a-time execution: row i's key
// goes to keys[i] and, for every non-nil cols[ci], its column ci to row i
// of that vector, which is Reset here to the column's type. Columns with
// a nil entry are skipped over, columns past the last non-nil entry are
// not looked at. Binary values are copied off the pinned leaf page into
// the vector, so the filled rows stay valid after the cursor moves on; a
// VARBINARY(MAX) column yields the 12-byte blob ref, as GetAt does.
// It drives the B+tree leaf iterator directly, so a fill walks leaf runs
// without crossing the Cursor interface per row. A fill ends after
// len(keys) rows, or earlier — after at least one — once the blobs its
// rows reference add up to maxBatchBlobBytes; when deref is non-nil only
// the MAX columns it marks (those the caller will dereference) count.
// It returns the number of rows filled; zero means the range is
// exhausted (or a row failed to decode — check the error). FillBatch
// and Next may be interleaved freely; both advance the same scan
// position.
func (c *Cursor) FillBatch(keys []int64, cols []*Vector, deref []bool) (int, error) {
	last := -1
	for ci, v := range cols {
		if v != nil {
			v.Reset(c.schema.Columns[ci].Type, len(keys))
			last = ci
		}
	}
	cols = cols[:last+1]
	n, blobBytes := 0, uint64(0)
	for n < len(keys) && blobBytes < maxBatchBlobBytes && c.it.Next() {
		keys[n] = c.it.Key()
		referenced, err := decodeRowInto(c.schema, c.it.Value(), cols, deref, n)
		if err != nil {
			return n, err
		}
		blobBytes += referenced
		n++
	}
	return n, c.it.Err()
}

// Key returns the current row's clustered key.
func (c *Cursor) Key() int64 { return c.it.Key() }

// Err returns the first error encountered while scanning.
func (c *Cursor) Err() error { return c.it.Err() }

// Close releases the cursor's pinned page. Safe to call twice.
func (c *Cursor) Close() { c.it.Close() }
