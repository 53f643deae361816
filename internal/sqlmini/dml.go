package sqlmini

import (
	"errors"
	"fmt"
	"strings"

	"sqlarray/internal/btree"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// This file executes the write half of the dialect: INSERT, UPDATE and
// DELETE, compiled through the same expression compiler and sargable
// key-range analysis the SELECT planner uses. UPDATE and DELETE run in
// two phases — a read phase that drains the SELECT executor's own
// scan → [filter] stack over the (pushed-down) key range and materializes
// the new values batch by batch, then a write phase inside one engine
// write session — so the scan never chases rows it just moved (the
// classic Halloween problem) and a WHERE on the clustered key descends
// the B+tree instead of scanning the table.
//
// Array-subscript assignment rides the §8 pre-parser: arraysugar turns
//
//	UPDATE t SET arr[2:5] = FloatArray.Vector_3(1,2,3) WHERE id = 7
//
// into a Subarray(...) call in target position, which the executor
// recognizes and lowers to Table.UpdateBlobSubarrayTx — rewriting only
// the chunk pages the slice touches on MAX columns, or patching the
// in-row bytes for short arrays.

// ExecResult is the outcome of Execute: a materialized result set for
// SELECT, a rows-affected count for DML, a rendered plan for EXPLAIN.
type ExecResult struct {
	Result       *Result // nil for DML and EXPLAIN statements
	RowsAffected int64
	Plan         string // rendered plan tree for EXPLAIN [ANALYZE]
}

// Execute parses and runs any supported statement.
func Execute(db *engine.DB, sql string) (*ExecResult, error) {
	return executeWith(db, sql, ExecOptions{})
}

// executeWith is Execute with explicit execution options. The read phase
// of UPDATE and DELETE honours ExecOptions.Ctx and batchSize; the other
// fields apply to SELECT only.
func executeWith(db *engine.DB, sql string, opts ExecOptions) (*ExecResult, error) {
	stmt, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return executeStmt(db, stmt, opts)
}

// executeStmt runs a parsed statement.
func executeStmt(db *engine.DB, stmt Statement, opts ExecOptions) (*ExecResult, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		res, err := ExecWith(db, s, opts)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Result: res, RowsAffected: int64(len(res.Rows))}, nil
	case *ExplainStmt:
		return execExplain(db, s, opts)
	case *insertStatement:
		return execInsert(db, s)
	case *updateStatement:
		return execUpdate(db, s, opts)
	case *deleteStatement:
		return execDelete(db, s, opts)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

// exprHasColRef reports whether an expression references a column.
func exprHasColRef(e Expr) bool {
	switch n := e.(type) {
	case *columnRef:
		return true
	case *binaryExpr:
		return exprHasColRef(n.L) || exprHasColRef(n.R)
	case *unaryExpr:
		return exprHasColRef(n.X)
	case *funcCall:
		for _, a := range n.Args {
			if exprHasColRef(a) {
				return true
			}
		}
	case *aggCall:
		if n.Arg != nil {
			return exprHasColRef(n.Arg)
		}
	}
	return false
}

// copyValue deep-copies binary payloads so a collected value survives
// the batch that produced it (vector arenas are reused by the next
// batch).
func copyValue(v engine.Value) engine.Value {
	if (v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax) && v.B != nil {
		v.B = append([]byte(nil), v.B...)
	}
	return v
}

// ---- INSERT -------------------------------------------------------------

func execInsert(db *engine.DB, stmt *insertStatement) (*ExecResult, error) {
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Column mapping: positional over the full schema, or the named
	// subset (unmentioned columns become NULL).
	colIdx := make([]int, 0, len(schema.Columns))
	if stmt.Columns == nil {
		for i := range schema.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		seen := make(map[int]bool)
		for _, name := range stmt.Columns {
			i := schema.ColIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, name)
			}
			if seen[i] {
				return nil, fmt.Errorf("sql: column %q listed twice", name)
			}
			seen[i] = true
			colIdx = append(colIdx, i)
		}
	}
	cc := &compileCtx{db: db, tbl: tbl, schema: schema, used: make([]bool, len(schema.Columns))}
	// Values are column-free, so they fold over one row of no columns.
	row := &rowBatch{n: 1}
	rows := make([][]engine.Value, 0, len(stmt.Rows))
	for _, tuple := range stmt.Rows {
		if len(tuple) != len(colIdx) {
			return nil, fmt.Errorf("sql: %d values for %d columns", len(tuple), len(colIdx))
		}
		vals := make([]engine.Value, len(schema.Columns)) // zero Value = NULL
		for j, e := range tuple {
			if exprHasColRef(e) {
				return nil, fmt.Errorf("sql: column reference in INSERT value")
			}
			if hasAggregate(e) {
				return nil, fmt.Errorf("sql: aggregate in INSERT value")
			}
			c, err := cc.compile(e, false)
			if err != nil {
				return nil, err
			}
			v, err := c.evalBatch(row, 1)
			if err != nil {
				return nil, err
			}
			vals[colIdx[j]] = v.Value(0)
		}
		rows = append(rows, vals)
	}
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	var n int64
	for _, vals := range rows {
		if err := tbl.InsertTx(tx, vals); err != nil {
			return nil, tx.Close(fmt.Errorf("sql: INSERT row %d: %w", n+1, err))
		}
		n++
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: n}, nil
}

// ---- UPDATE -------------------------------------------------------------

// assignKind distinguishes the SET target forms.
type assignKind uint8

const (
	assignColumn   assignKind = iota // SET col = expr
	assignSubarray                   // SET Schema.Subarray(col, offs, sizes[, collapse]) = expr
	assignItem                       // SET Schema.Item_N(col, i0, ..) = expr
)

// compiledAssign is one SET clause ready to evaluate over each batch of
// matching rows.
type compiledAssign struct {
	kind  assignKind
	col   int
	value compiled
	// idxs are the subscript expressions: the offsets and sizes IntVectors
	// of assignSubarray, one index per dimension of assignItem.
	idxs []compiled
}

// subUpdate is a materialized in-place subarray write for one row.
type subUpdate struct {
	col    int
	offset []int
	size   []int
	src    *core.Array
}

// rowUpdate is everything the write phase applies to one row.
type rowUpdate struct {
	key  int64
	cols []int
	vals []engine.Value
	subs []subUpdate
}

// compileAssignTarget classifies a SET target expression.
func compileAssignTarget(cc *compileCtx, a assignment) (*compiledAssign, error) {
	switch tgt := a.Target.(type) {
	case *columnRef:
		idx := cc.schema.ColIndex(tgt.Name)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, tgt.Name)
		}
		return &compiledAssign{kind: assignColumn, col: idx}, nil
	case *funcCall:
		name := tgt.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		switch {
		case name == "subarray":
			if len(tgt.Args) != 3 && len(tgt.Args) != 4 {
				return nil, fmt.Errorf("sql: subarray SET target wants (col, offsets, sizes[, collapse])")
			}
		case strings.HasPrefix(name, "item_"):
			if len(tgt.Args) < 2 {
				return nil, fmt.Errorf("sql: item SET target wants (col, index...)")
			}
		default:
			return nil, fmt.Errorf("sql: %q is not assignable", exprText(a.Target))
		}
		colRef, ok := tgt.Args[0].(*columnRef)
		if !ok {
			return nil, fmt.Errorf("sql: subscript assignment target must be a column, got %q", exprText(tgt.Args[0]))
		}
		idx := cc.schema.ColIndex(colRef.Name)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, colRef.Name)
		}
		ct := cc.schema.Columns[idx].Type
		if ct != engine.ColVarBinary && ct != engine.ColVarBinaryMax {
			return nil, fmt.Errorf("%w: subscript assignment to %s column %q",
				engine.ErrTypeError, ct, colRef.Name)
		}
		// The write patches the stored value, so the scan decodes the
		// target column in its raw form (a blob ref for MAX columns).
		cc.used[idx] = true
		ca := &compiledAssign{kind: assignItem, col: idx}
		subscripts := tgt.Args[1:]
		if name == "subarray" {
			ca.kind = assignSubarray
			subscripts = tgt.Args[1:3] // offsets, sizes; a collapse flag is ignored
		}
		for _, e := range subscripts {
			c, err := cc.compile(e, false)
			if err != nil {
				return nil, err
			}
			ca.idxs = append(ca.idxs, c)
		}
		return ca, nil
	}
	return nil, fmt.Errorf("sql: %q is not assignable", exprText(a.Target))
}

// intVector reads a value expected to be an integer index vector
// (IntArray.Vector_N).
func intVector(v engine.Value) ([]int, error) {
	b, err := v.AsBinary()
	if err != nil {
		return nil, fmt.Errorf("sql: subscript vector: %w", err)
	}
	a, err := core.Wrap(b)
	if err != nil {
		return nil, fmt.Errorf("sql: subscript vector: %w", err)
	}
	return a.Ints(), nil
}

// assignValueArray converts an evaluated RHS into the source array for
// a subarray write: a binary value is wrapped (and must match the
// element type); a numeric scalar becomes a one-element array of the
// stored type.
func assignValueArray(v engine.Value, elem core.ElemType, n int) (*core.Array, error) {
	switch v.Kind {
	case engine.ColVarBinary, engine.ColVarBinaryMax:
		a, err := core.Wrap(append([]byte(nil), v.B...))
		if err != nil {
			return nil, err
		}
		if a.ElemType() != elem {
			return nil, fmt.Errorf("%w: assigning %s elements into a %s array",
				engine.ErrTypeError, a.ElemType(), elem)
		}
		if a.Len() != n {
			return nil, fmt.Errorf("%w: subarray wants %d elements, value has %d",
				engine.ErrTypeError, n, a.Len())
		}
		return a, nil
	case engine.ColInt64, engine.ColFloat64:
		if n != 1 {
			return nil, fmt.Errorf("%w: scalar assigned to a %d-element subarray", engine.ErrTypeError, n)
		}
		a, err := core.New(core.Short, elem, 1)
		if err != nil {
			return nil, err
		}
		switch elem {
		case core.Complex64, core.Complex128:
			f, err := v.AsFloat()
			if err != nil {
				return nil, err
			}
			a.SetComplexAt(0, complex(f, 0))
		case core.Int8, core.Int16, core.Int32, core.Int64:
			i, err := v.AsInt()
			if err != nil {
				return nil, err
			}
			a.SetIntAt(0, i)
		default:
			f, err := v.AsFloat()
			if err != nil {
				return nil, err
			}
			a.SetFloatAt(0, f)
		}
		return a, nil
	}
	return nil, fmt.Errorf("%w: cannot assign %v into an array", engine.ErrTypeError, v.Kind)
}

// elemCount multiplies a size vector.
func elemCount(size []int) int {
	n := 1
	for _, d := range size {
		n *= d
	}
	return n
}

// execUpdate runs the two-phase UPDATE.
func execUpdate(db *engine.DB, stmt *updateStatement, opts ExecOptions) (*ExecResult, error) {
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// The read phase runs on a snapshot: SET expressions and the residual
	// predicate evaluate against pre-statement state (Halloween-safe),
	// and blob derefs inside them resolve the same commit's chunk pages.
	snap := db.Snapshot()
	defer snap.Release()
	cc := &compileCtx{db: db, tbl: tbl, schema: schema, snap: snap, used: make([]bool, len(schema.Columns))}
	assigns := make([]*compiledAssign, 0, len(stmt.Sets))
	for _, a := range stmt.Sets {
		if hasAggregate(a.Value) {
			return nil, fmt.Errorf("sql: aggregate in SET value")
		}
		ca, err := compileAssignTarget(cc, a)
		if err != nil {
			return nil, err
		}
		if ca.value, err = cc.compile(a.Value, false); err != nil {
			return nil, err
		}
		assigns = append(assigns, ca)
	}
	updates, err := collectUpdates(tbl, stmt.Where, cc, assigns, opts)
	if err != nil {
		return nil, err
	}
	// Write phase: one session for the whole statement.
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	var n int64
rows:
	for _, u := range updates {
		// Subarray writes go first: they address the row by its current
		// key, and a plain-column update in the same statement may
		// relocate it (SET id = ...). A NotFound on the first write
		// means the row vanished between the read and write phases —
		// skip it without counting; later writes of the same row cannot
		// miss (the session holds the write lock throughout).
		touched := false
		for _, s := range u.subs {
			if err := tbl.UpdateBlobSubarrayTx(tx, u.key, s.col, s.offset, s.size, s.src); err != nil {
				if errors.Is(err, btree.ErrNotFound) && !touched {
					continue rows
				}
				return nil, tx.Close(err)
			}
			touched = true
		}
		if len(u.cols) > 0 {
			if err := tbl.UpdateTx(tx, u.key, u.cols, u.vals); err != nil {
				if errors.Is(err, btree.ErrNotFound) && !touched {
					continue rows
				}
				return nil, tx.Close(err)
			}
		}
		n++
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: n}, nil
}

// collectUpdates is the read phase: for every batch of matching rows,
// evaluate the SET expressions over the batch and materialize everything
// the write phase needs.
func collectUpdates(tbl *engine.Table, where Expr, cc *compileCtx, assigns []*compiledAssign, opts ExecOptions) ([]rowUpdate, error) {
	var updates []rowUpdate
	err := matchingBatches(tbl, where, cc, opts, func(b *rowBatch, n int) error {
		first := len(updates)
		for _, key := range b.keys[:n] {
			updates = append(updates, rowUpdate{key: key})
		}
		for _, ca := range assigns {
			if err := ca.collect(tbl, cc, b, updates[first:]); err != nil {
				return err
			}
		}
		return nil
	})
	return updates, err
}

// collect evaluates one SET clause over the rows of b — each of its
// expressions once, over the whole batch — and records the outcome in
// rows, which holds one rowUpdate per batch row.
func (ca *compiledAssign) collect(tbl *engine.Table, cc *compileCtx, b *rowBatch, rows []rowUpdate) error {
	n := len(rows)
	vals, err := ca.value.evalBatch(b, n)
	if err != nil {
		return err
	}
	if ca.kind == assignColumn {
		for i := range rows {
			rows[i].cols = append(rows[i].cols, ca.col)
			rows[i].vals = append(rows[i].vals, copyValue(vals.Value(i)))
		}
		return nil
	}
	idxs := make([]*engine.Vector, len(ca.idxs))
	for k, c := range ca.idxs {
		if idxs[k], err = c.evalBatch(b, n); err != nil {
			return err
		}
	}
	// The stored form: target columns are not compiled through cMaxCol,
	// so a MAX column yields its 12-byte ref, not the payload.
	stored, err := b.col(ca.col)
	if err != nil {
		return err
	}
	for i := range rows {
		var offset, size []int
		if ca.kind == assignSubarray {
			if offset, err = intVector(idxs[0].Value(i)); err != nil {
				return err
			}
			if size, err = intVector(idxs[1].Value(i)); err != nil {
				return err
			}
		} else {
			for _, ix := range idxs {
				k, err := ix.Value(i).AsInt()
				if err != nil {
					return err
				}
				offset = append(offset, int(k))
				size = append(size, 1)
			}
		}
		if err := rows[i].subAssign(tbl, cc.snap, ca.col, offset, size, stored.Value(i), vals.Value(i)); err != nil {
			return err
		}
	}
	return nil
}

// subAssign lowers one row's subscript assignment into u: cur is the
// target column's stored value, rhs the evaluated right-hand side. A MAX
// column gets a subUpdate (in-place chunk writes); a short inline column
// gets a patched whole-column value (plain assignment), since its bytes
// live in the row image anyway. snap is the read phase's snapshot (header
// reads resolve the same commit the scan sees).
func (u *rowUpdate) subAssign(tbl *engine.Table, snap *engine.Snapshot, col int, offset, size []int, cur, rhs engine.Value) error {
	if len(offset) != len(size) {
		return fmt.Errorf("sql: subscript offset rank %d != size rank %d", len(offset), len(size))
	}
	column := tbl.Schema().Columns[col]
	if cur.IsNull() {
		return fmt.Errorf("%w: subscript assignment to NULL column %q", engine.ErrNullValue, column.Name)
	}
	if column.Type == engine.ColVarBinaryMax {
		h, err := tbl.ArrayAt(snap, cur.B).Header()
		if err != nil {
			return err
		}
		src, err := assignValueArray(rhs, h.Elem, elemCount(size))
		if err != nil {
			return err
		}
		u.subs = append(u.subs, subUpdate{col: col, offset: offset, size: size, src: src})
		return nil
	}
	// Short inline array: patch a copy of the row bytes.
	arr, err := core.Wrap(append([]byte(nil), cur.B...))
	if err != nil {
		return err
	}
	src, err := assignValueArray(rhs, arr.ElemType(), elemCount(size))
	if err != nil {
		return err
	}
	runs, err := core.SubarrayPlan(arr.Header(), offset, size)
	if err != nil {
		return err
	}
	dst, sp := arr.Payload(), src.Payload()
	for _, r := range runs {
		copy(dst[r.SrcOff:r.SrcOff+r.Len], sp[r.DstOff:])
	}
	u.cols = append(u.cols, col)
	u.vals = append(u.vals, engine.BinaryValue(arr.Bytes()))
	return nil
}

// ---- DELETE -------------------------------------------------------------

func execDelete(db *engine.DB, stmt *deleteStatement, opts ExecOptions) (*ExecResult, error) {
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Read phase on a snapshot, like UPDATE: the WHERE evaluates against
	// pre-statement state only.
	snap := db.Snapshot()
	defer snap.Release()
	cc := &compileCtx{db: db, tbl: tbl, schema: schema, snap: snap, used: make([]bool, len(schema.Columns))}
	var keys []int64
	if err := matchingBatches(tbl, stmt.Where, cc, opts, func(b *rowBatch, n int) error {
		keys = append(keys, b.keys[:n]...)
		return nil
	}); err != nil {
		return nil, err
	}
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	var n int64
	for _, k := range keys {
		if err := tbl.DeleteTx(tx, k); err != nil {
			if errors.Is(err, btree.ErrNotFound) {
				continue
			}
			return nil, tx.Close(err)
		}
		n++
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: n}, nil
}

// matchingBatches runs the shared read phase: extract sargable key bounds
// from the WHERE tree, compile the residual, and drain the executor's
// scan → [filter] stack over the range on cc.snap (the statement's read
// snapshot), handing each batch of matching rows to each. The scan
// decodes the columns marked in cc.used — those the residual and whatever
// the caller compiled through cc before (SET expressions) reference.
func matchingBatches(tbl *engine.Table, where Expr, cc *compileCtx, opts ExecOptions, each func(b *rowBatch, n int) error) error {
	if where != nil && hasAggregate(where) {
		return fmt.Errorf("sql: aggregates are not allowed in WHERE")
	}
	bounds := unboundedKeys()
	residual := where
	if where != nil {
		bounds, residual = extractKeyBounds(where, cc.schema)
	}
	if bounds.empty {
		return nil
	}
	cs := &compiledStmt{used: cc.used}
	if residual != nil {
		var err error
		if cs.where, err = cc.compile(residual, false); err != nil {
			return err
		}
	}
	return drainStack(tbl, cc.snap, bounds, residual, cs, opts, each)
}
