package engine

import (
	"errors"
	"fmt"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/core"
)

// Table is a clustered table: rows live in B-tree leaves ordered by the
// BIGINT key column, exactly the layout Table 1's queries scan.
//
// Concurrency: there is no table latch. Write sessions (InsertTx,
// UpdateTx, DeleteTx, UpdateBlobSubarrayTx) are serialized by the
// database's single-writer lock and mutate the live fields below
// through copy-on-write page versions; readers never block them and
// never see their uncommitted work. Cursors, point reads and the blob
// accessors resolve everything through a Snapshot — either one the
// caller passes to the ...At variants, or one the convenience forms
// acquire per call — whose visibility is fixed at open: the table's
// entry in the snapshot's catalog plus the page versions the buffer
// pool retains. The live tree and byte counters are the single
// writer's working state: Commit copies them into the next catalog and
// Abort resets them from the published one; nothing else reads them.
type Table struct {
	db     *DB
	name   string
	schema Schema
	slot   int // index of the table's entry in every catalog that has it

	// Live single-writer state (the version under construction).
	tree      *btree.Tree
	rowBytes  int64 // sum of row-image sizes (excludes out-of-page blobs)
	blobBytes int64 // bytes pushed out of page
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return &t.schema }

// Rows returns the row count of the newest committed version, like Get
// and Stats: an open write session's rows do not count until it
// commits. It reads the published catalog and no page, so it holds no
// snapshot.
func (t *Table) Rows() int64 {
	st, _ := t.db.cat.Load().state(t)
	return int64(st.count)
}

// live returns the writer's working state as a catalog entry.
func (t *Table) live() tableState {
	return tableState{
		t:         t,
		root:      t.tree.Root(),
		height:    t.tree.Height(),
		count:     t.tree.Len(),
		rowBytes:  t.rowBytes,
		blobBytes: t.blobBytes,
	}
}

// restore resets the writer's working state to the committed st — the
// abort path.
func (t *Table) restore(st tableState) {
	t.tree = btree.Open(t.db.bp, st.root, st.height, st.count)
	t.rowBytes, t.blobBytes = st.rowBytes, st.blobBytes
}

// Insert adds a row as a single-statement write session.
func (t *Table) Insert(vals []Value) error {
	tx, err := t.db.Begin()
	if err != nil {
		return err
	}
	return tx.Close(t.InsertTx(tx, vals))
}

// InsertTx adds a row inside an existing write session. VARBINARY(MAX)
// values are written to the blob store and replaced by their refs
// before the row image is built; everything else is stored inline on
// the page.
func (t *Table) InsertTx(tx *Tx, vals []Value) error {
	if len(vals) != len(t.schema.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrTypeError, len(vals), len(t.schema.Columns))
	}
	key, err := vals[t.schema.Key].AsInt()
	if err != nil {
		return fmt.Errorf("engine: clustered key: %w", err)
	}
	tx.touch()
	stored := vals
	copied := false
	var blobAdded int64
	for i, c := range t.schema.Columns {
		if c.Type != ColVarBinaryMax || vals[i].IsNull() {
			continue
		}
		if !copied {
			stored = append([]Value(nil), vals...)
			copied = true
		}
		ref, err := t.db.blobs.Write(vals[i].B, codecForBlob(vals[i].B))
		if err != nil {
			return fmt.Errorf("engine: writing MAX column %q: %w", c.Name, err)
		}
		enc := make([]byte, blob.RefSize)
		ref.Encode(enc)
		stored[i] = BinaryMaxValue(enc)
		blobAdded += int64(len(vals[i].B))
	}
	raw, err := appendRow(t.db.rowBuf[:0], &t.schema, stored)
	if err != nil {
		return err
	}
	t.db.rowBuf = raw
	if len(raw) > btree.MaxValueSize {
		return fmt.Errorf("%w: %d bytes", errRowTooWide, len(raw))
	}
	if err := t.tree.Insert(key, raw); err != nil {
		return err
	}
	t.rowBytes += int64(len(raw))
	t.blobBytes += blobAdded
	t.db.m.rowsInserted.Inc()
	return nil
}

// UpdateTx overwrites columns cols (schema indexes) of the row with the
// given key. A MAX column receives a fresh payload (the old blob is
// freed and the new one written); setting the key column relocates the
// row. Returns btree.ErrNotFound if the key is absent.
func (t *Table) UpdateTx(tx *Tx, key int64, cols []int, vals []Value) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("%w: %d columns for %d values", ErrTypeError, len(cols), len(vals))
	}
	tx.touch()
	raw, err := t.tree.Get(key)
	if err != nil {
		return err
	}
	cur, err := decodeAll(&t.schema, raw)
	if err != nil {
		return err
	}
	set := make(map[int]Value, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(t.schema.Columns) {
			return fmt.Errorf("%w: index %d", ErrNoColumn, c)
		}
		set[c] = vals[i]
	}
	// Stage blob rewrites: new payloads are written first; the old refs
	// are freed only after the row image lands, so a failure part-way
	// leaves the old blobs intact (the new ones are freed on unwind).
	var freeOld, freeNew []blob.Ref
	var blobDelta int64
	next := append([]Value(nil), cur...)
	for c, v := range set {
		if t.schema.Columns[c].Type != ColVarBinaryMax {
			next[c] = v
			continue
		}
		oldV := cur[c]
		if !oldV.IsNull() {
			oldRef, err := blob.DecodeRef(oldV.B)
			if err != nil {
				return err
			}
			freeOld = append(freeOld, oldRef)
			blobDelta -= oldRef.Length
		}
		if v.IsNull() {
			next[c] = Null
			continue
		}
		ref, err := t.db.blobs.Write(v.B, codecForBlob(v.B))
		if err != nil {
			return fmt.Errorf("engine: writing MAX column %q: %w", t.schema.Columns[c].Name, err)
		}
		freeNew = append(freeNew, ref)
		blobDelta += int64(len(v.B))
		enc := make([]byte, blob.RefSize)
		ref.Encode(enc)
		next[c] = BinaryMaxValue(enc)
	}
	unwind := func(e error) error {
		for _, r := range freeNew {
			_ = t.db.blobs.Free(r)
		}
		return e
	}
	newRaw, err := encodeRow(&t.schema, next)
	if err != nil {
		return unwind(err)
	}
	if len(newRaw) > btree.MaxValueSize {
		return unwind(fmt.Errorf("%w: %d bytes", errRowTooWide, len(newRaw)))
	}
	newKey, err := next[t.schema.Key].AsInt()
	if err != nil {
		return unwind(fmt.Errorf("engine: clustered key: %w", err))
	}
	if newKey != key {
		if _, err := t.tree.Get(newKey); err == nil {
			return unwind(fmt.Errorf("%w: %d", btree.ErrDuplicate, newKey))
		} else if !errors.Is(err, btree.ErrNotFound) {
			return unwind(err)
		}
		if err := t.tree.Delete(key); err != nil {
			return unwind(err)
		}
		if err := t.tree.Insert(newKey, newRaw); err != nil {
			// Try to restore the original row before surfacing the error.
			_ = t.tree.Insert(key, raw)
			return unwind(err)
		}
	} else if err := t.tree.Put(key, newRaw); err != nil {
		return unwind(err)
	}
	for _, r := range freeOld {
		if err := t.db.blobs.Free(r); err != nil {
			return err
		}
	}
	t.rowBytes += int64(len(newRaw)) - int64(len(raw))
	t.blobBytes += blobDelta
	t.db.m.rowsUpdated.Inc()
	return nil
}

// DeleteTx removes a row, returning its out-of-page blobs to the free
// list. Returns btree.ErrNotFound if the key is absent.
func (t *Table) DeleteTx(tx *Tx, key int64) error {
	tx.touch()
	raw, err := t.tree.Get(key)
	if err != nil {
		return err
	}
	cur, err := decodeAll(&t.schema, raw)
	if err != nil {
		return err
	}
	if err := t.tree.Delete(key); err != nil {
		return err
	}
	var blobFreed int64
	for i, c := range t.schema.Columns {
		if c.Type != ColVarBinaryMax || cur[i].IsNull() {
			continue
		}
		ref, err := blob.DecodeRef(cur[i].B)
		if err != nil {
			return err
		}
		if err := t.db.blobs.Free(ref); err != nil {
			return err
		}
		blobFreed += ref.Length
	}
	t.rowBytes -= int64(len(raw))
	t.blobBytes -= blobFreed
	t.db.m.rowsDeleted.Inc()
	return nil
}

// UpdateBlobSubarrayTx rewrites only the chunk pages the subarray's
// byte runs touch — the write-side mirror of BlobSubarray's read
// pushdown, and the engine form of the paper's UpdateArray UDFs that
// "modify subarrays in place without rewriting whole blobs". The row
// image is untouched (the blob ref does not change), so a subarray
// update of a multi-gigabyte array logs and writes a handful of chunk
// pages. src supplies the replacement elements in column-major order
// and must match the stored element type and the product of size.
func (t *Table) UpdateBlobSubarrayTx(tx *Tx, key int64, col int, offset, size []int, src *core.Array) error {
	tx.touch()
	if col < 0 || col >= len(t.schema.Columns) {
		return fmt.Errorf("%w: index %d", ErrNoColumn, col)
	}
	if t.schema.Columns[col].Type != ColVarBinaryMax {
		return fmt.Errorf("%w: column %q is %s, not VARBINARY(MAX)",
			ErrTypeError, t.schema.Columns[col].Name, t.schema.Columns[col].Type)
	}
	raw, err := t.tree.Get(key)
	if err != nil {
		return err
	}
	row, err := decodeAll(&t.schema, raw)
	if err != nil {
		return err
	}
	v := row[col]
	if v.IsNull() {
		return fmt.Errorf("%w: column %q is NULL at key %d", ErrNullValue, t.schema.Columns[col].Name, key)
	}
	ref, err := blob.DecodeRef(v.B)
	if err != nil {
		return err
	}
	// The writer reads its own pending pages: the live store, not a
	// snapshot.
	var r ArrayReader
	r.bind(t.db.blobs, Value{Kind: ColMaxRef, B: v.B})
	h, err := r.Header()
	if err != nil {
		return err
	}
	if src.ElemType() != h.Elem {
		return fmt.Errorf("%w: assigning %s elements into a %s array",
			ErrTypeError, src.ElemType(), h.Elem)
	}
	runs, err := core.SubarrayPlan(h, offset, size)
	if err != nil {
		return err
	}
	need := h.Elem.Size()
	for _, d := range size {
		need *= d
	}
	if len(src.Payload()) != need {
		return fmt.Errorf("%w: subarray of %v needs %d bytes, value has %d",
			ErrTypeError, size, need, len(src.Payload()))
	}
	return t.db.blobs.WriteRuns(ref, src.Payload(), blobRuns(runs, r.hs))
}

// Get fetches the row with the given clustered key, fully decoded, from
// a fresh snapshot (the committed state as of the call).
func (t *Table) Get(key int64) ([]Value, error) {
	s := t.db.Snapshot()
	defer s.Release()
	// Values alias the tree.Get copy, which the caller may retain.
	return t.GetAt(s, key)
}

// TableStats summarizes a table's storage footprint; the Table 1 harness
// uses it for the "43 % bigger" comparison (§6.2).
type TableStats struct {
	Rows       int64
	RowBytes   int64 // on-page row images
	BlobBytes  int64 // out-of-page blob payloads
	LeafPages  int   // clustered-index leaf pages
	TreeHeight int
}

// Stats walks the leaf chain of a fresh snapshot to count pages and
// returns the footprint.
func (t *Table) Stats() (TableStats, error) {
	s := t.db.Snapshot()
	defer s.Release()
	return t.StatsAt(s)
}
