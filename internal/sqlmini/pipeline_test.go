package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sqlarray/internal/engine"
)

// ---- the oracle's row evaluator -------------------------------------------
//
// referenceRun evaluates expressions one row at a time, straight over a
// cursor's lazy RowView, through the eval methods below. They used to be
// the second method of the compiled interface; the executor no longer has
// a row evaluator, so they live here — the same compiled tree, walked by
// code production never runs, which is what lets TestDifferentialSelect
// and TestDifferentialDML check evalBatch (AND/OR/NOT included) against
// something it does not share. Only the scalar leaves (arith, compare,
// negate, truthy) and the boundary's FuncRegistry.Call are common.

// rowCtx binds row-wise evaluation to one scan row; aggVals carries the
// aggregate results for the SELECT items of an aggregate query.
type rowCtx struct {
	key     int64
	row     *engine.RowView
	aggVals []engine.Value   // aggregate results, read by cAggRef
	tbl     *engine.Table    // where cMaxRef materializes from
	snap    *engine.Snapshot // and as of when
}

type rowEvaluator interface {
	eval(ctx *rowCtx) (engine.Value, error)
}

func evalRow(c compiled, ctx *rowCtx) (engine.Value, error) {
	return c.(rowEvaluator).eval(ctx)
}

func (c *cConst) eval(*rowCtx) (engine.Value, error) { return c.vec.Value(0), nil }

func (c *cCol) eval(ctx *rowCtx) (engine.Value, error) { return ctx.row.Col(c.idx) }

func (c *cMaxCol) eval(ctx *rowCtx) (engine.Value, error) {
	v, err := ctx.row.Col(c.idx)
	if err != nil {
		return v, err
	}
	return c.materialize(v)
}

// cMaxRef's oracle is materialize-then-call: the reference hands the
// array function the whole payload, which it reads in the bytes form.
func (c *cMaxRef) eval(ctx *rowCtx) (engine.Value, error) {
	v, err := ctx.row.Col(c.idx)
	if err != nil {
		return v, err
	}
	return (&cMaxCol{tbl: ctx.tbl, snap: ctx.snap}).materialize(v)
}

func (c *cUDF) eval(ctx *rowCtx) (engine.Value, error) {
	buf := make([]engine.Value, 0, len(c.args))
	for _, a := range c.args {
		v, err := evalRow(a, ctx)
		if err != nil {
			return engine.Null, err
		}
		buf = append(buf, v)
	}
	return c.reg.Call(c.def, buf)
}

func (c *cAggRef) eval(ctx *rowCtx) (engine.Value, error) { return ctx.aggVals[c.idx], nil }

func (c *cBinary) eval(ctx *rowCtx) (engine.Value, error) {
	l, err := evalRow(c.l, ctx)
	if err != nil {
		return engine.Null, err
	}
	r, err := evalRow(c.r, ctx)
	if err != nil {
		return engine.Null, err
	}
	return applyBinary(c.op, l, r)
}

// Short-circuit logical operators (SQL three-valued logic reduced to
// two-valued with NULL = false, sufficient for the workload).
func (c *cLogic) eval(ctx *rowCtx) (engine.Value, error) {
	l, err := evalRow(c.l, ctx)
	if err != nil {
		return engine.Null, err
	}
	if truthy(l) == c.or {
		return boolVal(c.or), nil // the left operand decides
	}
	r, err := evalRow(c.r, ctx)
	if err != nil {
		return engine.Null, err
	}
	return boolVal(truthy(r)), nil
}

func (c *cUnary) eval(ctx *rowCtx) (engine.Value, error) {
	v, err := evalRow(c.x, ctx)
	if err != nil {
		return engine.Null, err
	}
	switch c.op {
	case "-":
		return negate(v)
	case "NOT":
		if v.IsNull() {
			return engine.Null, nil
		}
		return boolVal(!truthy(v)), nil
	}
	return engine.Null, fmt.Errorf("sql: unknown unary %q", c.op)
}

// add folds one row into the accumulator. Only the reference executor
// aggregates a row at a time; the engine's accumulators take whole
// batches (addBatch).
func (a *accumulator) add(ctx *rowCtx) error {
	if a.arg == nil { // COUNT(*)
		a.count++
		return nil
	}
	v, err := evalRow(a.arg, ctx)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.addFloat(f)
	return nil
}

// referenceRun is the pre-pipeline executor (materialize-everything full
// scan via Table.Scan, no pushdown, no parallelism, no batches), kept
// here as the golden oracle for the executor.
func referenceRun(db *engine.DB, query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	// MAX columns deref through a snapshot; no test runs the oracle
	// beside a writer, so Scan's own snapshot below is the same commit.
	snap := db.Snapshot()
	defer snap.Release()
	cs, err := compileStmt(db, tbl, stmt, stmt.Where, snap)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cs.columns}
	if cs.aggregate {
		ctx := &rowCtx{tbl: tbl, snap: snap}
		err := tbl.Scan(func(key int64, row *engine.RowView) (bool, error) {
			ctx.key, ctx.row = key, row
			if cs.where != nil {
				ok, err := evalRow(cs.where, ctx)
				if err != nil {
					return false, err
				}
				if !truthy(ok) {
					return true, nil
				}
			}
			for _, a := range cs.accs {
				if err := a.add(ctx); err != nil {
					return false, err
				}
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		ctx.aggVals = make([]engine.Value, len(cs.accs))
		for i, a := range cs.accs {
			ctx.aggVals[i] = a.result()
		}
		out := make([]engine.Value, len(cs.items))
		for i, it := range cs.items {
			v, err := evalRow(it, ctx)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
		return res, nil
	}
	ctx := &rowCtx{tbl: tbl, snap: snap}
	err = tbl.Scan(func(key int64, row *engine.RowView) (bool, error) {
		ctx.key, ctx.row = key, row
		if cs.where != nil {
			ok, err := evalRow(cs.where, ctx)
			if err != nil {
				return false, err
			}
			if !truthy(ok) {
				return true, nil
			}
		}
		out := make([]engine.Value, len(cs.items))
		for i, it := range cs.items {
			v, err := evalRow(it, ctx)
			if err != nil {
				return false, err
			}
			if v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax {
				v.B = append([]byte(nil), v.B...)
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
		if stmt.Top > 0 && int64(len(res.Rows)) >= stmt.Top {
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func valueEq(a, b engine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case 0:
		return true
	case engine.ColInt64:
		return a.I == b.I
	case engine.ColFloat64:
		return a.F == b.F || (a.F != a.F && b.F != b.F) // NaN == NaN here
	case engine.ColVarBinary, engine.ColVarBinaryMax:
		return bytes.Equal(a.B, b.B)
	}
	return false
}

func resultEq(a, b *Result) string {
	if strings.Join(a.Columns, "|") != strings.Join(b.Columns, "|") {
		return fmt.Sprintf("columns %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d width %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if !valueEq(a.Rows[i][j], b.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return ""
}

// goldenQueries covers every query shape the package tests exercise,
// plus the sargable forms the planner pushes down.
var goldenQueries = []string{
	"SELECT COUNT(*) FROM Tscalar",
	"SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)",
	"SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)",
	"SELECT AVG(v1) FROM Tscalar",
	"SELECT MIN(v2) FROM Tscalar",
	"SELECT MAX(v2) FROM Tscalar",
	"SELECT COUNT(v1) FROM Tscalar",
	"SELECT SUM(v1) / COUNT(*) FROM Tscalar",
	"SELECT SUM(v1 + v2) FROM Tscalar",
	"SELECT 2 * SUM(v1) FROM Tscalar",
	"SELECT COUNT(*), SUM(v1), MIN(v1), MAX(v1) FROM Tscalar",
	"SELECT COUNT(*) FROM Tscalar WHERE v1 >= 50",
	"SELECT COUNT(*) FROM Tscalar WHERE v1 >= 10 AND v1 < 20",
	"SELECT COUNT(*) FROM Tscalar WHERE v1 = 5 OR v1 = 7",
	"SELECT COUNT(*) FROM Tscalar WHERE NOT v1 < 90",
	"SELECT COUNT(*) FROM Tscalar WHERE v1 <> 0",
	"SELECT SUM(v1) FROM Tscalar WHERE id % 2 = 0",
	"SELECT id, v1 * 2 AS doubled FROM Tscalar WHERE id < 5",
	"SELECT TOP 7 id FROM Tscalar",
	"SELECT SUM(dbo.EmptyFunction(b, 0)) FROM Tscalar WITH (NOLOCK)",
	"SELECT SUM(dbo.Twice(v1)) FROM Tscalar",
	"SELECT COUNT(*) n FROM Tscalar",
	"SELECT TOP 1 -v1 + 3 * 2 FROM Tscalar WHERE id = 1",
	"SELECT TOP 1 (v1 + 3) * 2 FROM Tscalar WHERE id = 1",
	"SELECT TOP 1 10 - 4 - 3 FROM Tscalar",
	"SELECT TOP 1 7 / 2 FROM Tscalar",
	// Sargable key predicates, in every operator and orientation.
	"SELECT v1 FROM Tscalar WHERE id = 42",
	"SELECT v1 FROM Tscalar WHERE id >= 90",
	"SELECT id FROM Tscalar WHERE id > 10 AND id <= 15",
	"SELECT id FROM Tscalar WHERE 95 <= id",
	"SELECT id FROM Tscalar WHERE 42 = id",
	"SELECT id FROM Tscalar WHERE id < 4",
	"SELECT id, v1 FROM Tscalar WHERE id >= 20 AND id < 30 AND v1 <> 25",
	"SELECT COUNT(*) FROM Tscalar WHERE id >= 10 AND id <= 20",
	"SELECT SUM(v1) FROM Tscalar WHERE id >= 10 AND id <= 20 AND id % 2 = 0",
	"SELECT COUNT(*) FROM Tscalar WHERE id = 5 AND id = 7", // contradiction
	"SELECT id FROM Tscalar WHERE id > 10.5 AND id < 13.5", // fractional bounds
	"SELECT id FROM Tscalar WHERE id = 10.5",               // fractional point: empty
	"SELECT id FROM Tscalar WHERE id >= -3",
	"SELECT id FROM Tscalar WHERE -1 >= id OR id >= 98", // OR: not sargable
	"SELECT b FROM Tscalar WHERE id = 3",                // binary materialization
	"SELECT TOP 3 id FROM Tscalar WHERE id >= 50",
	"SELECT id FROM Tscalar LIMIT 4",
	"SELECT id FROM Tscalar WHERE id >= 95 LIMIT 10",
	// Logic over aggregate results (row-wise evaluation above the
	// aggregate in the batch pipeline).
	"SELECT COUNT(*) > 0 AND SUM(v1) > 4000 FROM Tscalar",
	"SELECT NOT COUNT(*) FROM Tscalar",
	// Binary values crossing batch boundaries.
	"SELECT id, b FROM Tscalar WHERE id >= 3 AND id < 9",
	"SELECT COUNT(*) FROM Tscalar WHERE b = 'x'",
	// Short-circuit logic mixing UDFs and columns in the residual filter.
	"SELECT id FROM Tscalar WHERE v1 < 5 AND dbo.Twice(v1) > 2",
	"SELECT id FROM Tscalar WHERE v1 >= 97 OR dbo.Twice(v1) < 4",
	// TOP over an aggregate (vacuous limit) and over a residual filter
	// (limit must truncate a surplus batch instead of clipping the scan).
	"SELECT TOP 1 SUM(v1) FROM Tscalar",
	"SELECT TOP 4 id FROM Tscalar WHERE v1 % 3 = 0",
	"SELECT id FROM Tscalar WHERE v2 >= 500 LIMIT 7",
	// BIGINT pairs compare exactly past 2^53 in every executor (the
	// literal is unpushable, so this exercises the residual compare).
	"SELECT COUNT(*) FROM Tscalar WHERE id <> 9007199254740993",
}

// TestGoldenEquivalence asserts that the executor — at the default and
// at a tiny batch size (exercising batch-boundary handling), materialized
// and streamed — matches the reference full-scan executor on every
// covered query shape, and leaks no buffer-pool pin after Close.
func TestGoldenEquivalence(t *testing.T) {
	db := testDB(t)
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{batchSize: 3}},
	}
	for _, q := range goldenQueries {
		want, err := referenceRun(db, q)
		if err != nil {
			t.Fatalf("reference(%q): %v", q, err)
		}
		for _, m := range modes {
			got, err := RunWith(db, q, m.opts)
			if err != nil {
				t.Fatalf("%s Run(%q): %v", m.name, q, err)
			}
			if diff := resultEq(want, got); diff != "" {
				t.Errorf("%s Run(%q): %s", m.name, q, diff)
			}
			rows, err := queryWith(db, q, m.opts)
			if err != nil {
				t.Fatalf("%s Query(%q): %v", m.name, q, err)
			}
			streamed := &Result{Columns: rows.Columns()}
			for rows.Next() {
				streamed.Rows = append(streamed.Rows, rows.Row())
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s Query(%q) stream: %v", m.name, q, err)
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("%s Close(%q): %v", m.name, q, err)
			}
			if diff := resultEq(want, streamed); diff != "" {
				t.Errorf("%s Query(%q): %s", m.name, q, diff)
			}
			if got := db.Pool().PinnedFrames(); got != 0 {
				t.Fatalf("%s %q: PinnedFrames after Close = %d, want 0", m.name, q, got)
			}
		}
	}
}

// TestRowsCloseSemantics pins the Rows contract, mid-batch and across
// batch boundaries: Close mid-stream (with leaf pages still pinned)
// releases every pin,
// Close is idempotent, and Next after Close reports false instead of
// touching the torn-down pipeline.
func TestRowsCloseSemantics(t *testing.T) {
	db := wideDB(t, 3000)
	for _, m := range []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{batchSize: 3}},
	} {
		t.Run(m.name, func(t *testing.T) {
			rows, err := queryWith(db, "SELECT id, v1 FROM T", m.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if !rows.Next() {
					t.Fatal("short stream")
				}
			}
			keep := rows.Row()
			if err := rows.Close(); err != nil {
				t.Fatalf("Close mid-stream: %v", err)
			}
			if got := db.Pool().PinnedFrames(); got != 0 {
				t.Fatalf("PinnedFrames after mid-stream Close = %d, want 0", got)
			}
			for i := 0; i < 3; i++ {
				if rows.Next() {
					t.Fatal("Next after Close must return false")
				}
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("Err after Close: %v", err)
			}
			// The row yielded before Close stays valid (materialized).
			if len(keep) != 2 || keep[0].Kind != engine.ColInt64 {
				t.Fatalf("retained row corrupted after Close: %v", keep)
			}
			// Close before any Next is also fine.
			rows, err = queryWith(db, "SELECT id FROM T", m.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			if rows.Next() {
				t.Fatal("Next on never-advanced closed Rows must return false")
			}
			if got := db.Pool().PinnedFrames(); got != 0 {
				t.Fatalf("PinnedFrames after immediate Close = %d, want 0", got)
			}
		})
	}
}

// wideDB builds a table large enough to span many leaf pages: n rows of
// (id, v1, v2, pad) where pad is a 100-byte filler.
func wideDB(t testing.TB, n int64) *engine.DB {
	t.Helper()
	db := memDB(t)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v1", Type: engine.ColFloat64},
		engine.Column{Name: "v2", Type: engine.ColFloat64},
		engine.Column{Name: "pad", Type: engine.ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 100)
	for i := int64(0); i < n; i++ {
		err := tbl.Insert([]engine.Value{
			engine.IntValue(i),
			engine.FloatValue(float64(i)),
			engine.FloatValue(float64(i % 97)),
			engine.BinaryValue(pad),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestKeyPushdownTouchesFewPages is the acceptance check: point lookups,
// key ranges and TOP n must not read the whole clustered index. Pages
// touched are counted by the registry's pages.logical_reads.
func TestKeyPushdownTouchesFewPages(t *testing.T) {
	const rows = 5000
	db := wideDB(t, rows)
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LeafPages < 20 {
		t.Fatalf("table too small for the test: %d leaf pages", stats.LeafPages)
	}
	pool := db.Pool()

	measure := func(q string, wantRows int) uint64 {
		t.Helper()
		before := metric(t, db.Metrics(), "pages.logical_reads")
		res, err := Run(db, q)
		if err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("Run(%q) = %d rows, want %d", q, len(res.Rows), wantRows)
		}
		return metric(t, db.Metrics(), "pages.logical_reads") - before
	}

	full := measure("SELECT COUNT(*) FROM T", 1)
	if full < uint64(stats.LeafPages) {
		t.Fatalf("full scan read %d pages, expected >= %d leaves", full, stats.LeafPages)
	}

	// A point lookup descends the tree: height + a couple of pages, not
	// thousands.
	point := measure("SELECT v1 FROM T WHERE id = 4321", 1)
	if point > uint64(stats.TreeHeight)+2 {
		t.Errorf("point lookup read %d pages (height %d, %d leaves) — not pushed down",
			point, stats.TreeHeight, stats.LeafPages)
	}

	// TOP n stops after the first leaf or two.
	top := measure("SELECT TOP 3 id FROM T", 3)
	if top > uint64(stats.TreeHeight)+2 {
		t.Errorf("TOP 3 read %d pages — did not terminate early", top)
	}

	// A narrow range touches the descent plus the pages the range spans.
	rng := measure("SELECT COUNT(*) FROM T WHERE id >= 1000 AND id < 1100", 1)
	if rng > uint64(stats.TreeHeight)+5 {
		t.Errorf("range scan read %d pages — not pushed down", rng)
	}
	if rng >= full/4 {
		t.Errorf("range scan read %d pages vs %d for full scan", rng, full)
	}

	if got := pool.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}

func TestStreamingEarlyCloseReleasesPins(t *testing.T) {
	db := wideDB(t, 3000)
	rows, err := Query(db, "SELECT id, v1 FROM T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatal("short stream")
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("Next after Close must return false")
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after abandoned stream = %d, want 0", got)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after abandoned stream: %v", err)
	}

	// TOP n satisfied: pins are released even before Close is called.
	rows, err = Query(db, "SELECT TOP 2 id FROM T")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after TOP-n drain (no Close yet) = %d, want 0", got)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after TOP-n drain: %v", err)
	}
}

// TestTopOverResidualFilterProjectsOnlyReturnedRows pins the operator
// order scan → filter → limit → project: with a non-sargable WHERE the
// SELECT items are evaluated for the n rows TOP returns, not for the
// whole surviving batch — the UDF boundary is crossed n times, and a UDF
// that would fail on a row past the limit never sees it.
func TestTopOverResidualFilterProjectsOnlyReturnedRows(t *testing.T) {
	db := testDB(t)
	db.Funcs().Register("dbo.FailFrom50", 1, func(args []engine.Value) (engine.Value, error) {
		f, err := args[0].AsFloat()
		if err != nil {
			return engine.Null, err
		}
		if f >= 50 {
			return engine.Null, fmt.Errorf("boom at %g", f)
		}
		return engine.FloatValue(f), nil
	})
	for _, batchSize := range []int{0, 3} {
		opts := ExecOptions{batchSize: batchSize}
		for _, q := range []string{
			"SELECT TOP 3 dbo.Twice(v1) FROM Tscalar WHERE v2 >= 0",
			"SELECT TOP 3 dbo.FailFrom50(v1) FROM Tscalar WHERE v2 >= 0",
		} {
			want, err := referenceRun(db, q)
			if err != nil {
				t.Fatalf("reference(%q): %v", q, err)
			}
			before := metric(t, db.Metrics(), "udf.calls")
			got, err := RunWith(db, q, opts)
			if err != nil {
				t.Fatalf("batchSize=%d Run(%q): %v", batchSize, q, err)
			}
			if diff := resultEq(want, got); diff != "" {
				t.Errorf("batchSize=%d Run(%q): %s", batchSize, q, diff)
			}
			if calls := metric(t, db.Metrics(), "udf.calls") - before; calls != 3 {
				t.Errorf("batchSize=%d Run(%q): %d UDF calls, want 3", batchSize, q, calls)
			}
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}

// TestParallelAggregateMatchesSerial forces the parallel aggregate scan
// and checks it against the serial pipeline and the reference executor.
// v1 holds integer-valued floats, so SUM is exact under any association.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	db := wideDB(t, 5000)
	db.Funcs().Register("dbo.Twice", 1, func(args []engine.Value) (engine.Value, error) {
		f, err := args[0].AsFloat()
		if err != nil {
			return engine.Null, err
		}
		return engine.FloatValue(2 * f), nil
	})
	queries := []string{
		"SELECT COUNT(*) FROM T",
		"SELECT SUM(v1) FROM T",
		"SELECT AVG(v1) FROM T",
		"SELECT MIN(v1), MAX(v1) FROM T",
		"SELECT COUNT(*), SUM(v1), MIN(v2), MAX(v2) FROM T",
		"SELECT SUM(v1) FROM T WHERE v2 >= 50",
		"SELECT SUM(v1) FROM T WHERE id >= 1000 AND id < 4000",
		"SELECT SUM(v1) FROM T WHERE id >= 1000 AND id < 4000 AND id % 2 = 0",
		"SELECT SUM(dbo.Twice(v1)) FROM T",
		"SELECT SUM(v1) FROM T WHERE id = 17",
		"SELECT SUM(v1) FROM T WHERE id = 5 AND id = 7", // empty range
	}
	serial := ExecOptions{Parallelism: 1}
	parallel := ExecOptions{Parallelism: 4, parallelThreshold: 1}
	parallel3 := ExecOptions{Parallelism: 4, parallelThreshold: 1, batchSize: 3}
	for _, q := range queries {
		want, err := RunWith(db, q, serial)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		got, err := RunWith(db, q, parallel)
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if diff := resultEq(want, got); diff != "" {
			t.Errorf("parallel %q: %s", q, diff)
		}
		got3, err := RunWith(db, q, parallel3)
		if err != nil {
			t.Fatalf("parallel batch3 %q: %v", q, err)
		}
		if diff := resultEq(want, got3); diff != "" {
			t.Errorf("parallel batch3 %q: %s", q, diff)
		}
		ref, err := referenceRun(db, q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		if diff := resultEq(ref, got); diff != "" {
			t.Errorf("parallel vs reference %q: %s", q, diff)
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after parallel aggregates = %d", got)
	}
}

func TestParallelAggregateWorkerErrorPropagates(t *testing.T) {
	db := wideDB(t, 4000)
	db.Funcs().Register("dbo.FailAt", 1, func(args []engine.Value) (engine.Value, error) {
		i, err := args[0].AsInt()
		if err != nil {
			return engine.Null, err
		}
		if i == 3777 {
			return engine.Null, fmt.Errorf("boom at %d", i)
		}
		return engine.FloatValue(float64(i)), nil
	})
	opts := ExecOptions{Parallelism: 4, parallelThreshold: 1}
	_, err := RunWith(db, "SELECT SUM(dbo.FailAt(id)) FROM T", opts)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("worker error = %v, want boom", err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after failed parallel scan = %d", got)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after failed parallel scan: %v", err)
	}
}

func TestParallelDecisionRespectsThreshold(t *testing.T) {
	// Tiny table: even with Parallelism set, the threshold keeps it
	// serial (exercised by asserting the result is still right and that
	// UDF calls happen exactly once per row — worker compile would be
	// fine too, but the plan must not misbehave either way).
	db := testDB(t)
	before := metric(t, db.Metrics(), "udf.calls")
	res, err := RunWith(db, "SELECT SUM(dbo.Twice(v1)) FROM Tscalar",
		ExecOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 9900 {
		t.Errorf("SUM(Twice(v1)) = %v", v)
	}
	if calls := metric(t, db.Metrics(), "udf.calls") - before; calls != 100 {
		t.Errorf("UDF calls = %d, want one per row", calls)
	}
}

func TestExtractKeyBounds(t *testing.T) {
	schema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where       string
		lo, hi      string // "" = unbounded
		empty       bool
		residualNil bool
	}{
		{"id = 5", "5", "5", false, true},
		{"id >= 5", "5", "", false, true},
		{"id > 5", "6", "", false, true},
		{"id <= 5", "", "5", false, true},
		{"id < 5", "", "4", false, true},
		{"5 < id", "6", "", false, true},
		{"5 >= id", "", "5", false, true},
		{"id >= 2 AND id <= 8", "2", "8", false, true},
		{"id >= 2 AND x > 0", "2", "", false, false},
		{"id >= 8 AND id <= 2", "8", "2", true, true},
		{"id = 2 AND id = 8", "8", "2", true, true},
		{"id = 2 OR id = 8", "", "", false, false},
		{"NOT id = 2", "", "", false, false},
		{"id > 1.5", "2", "", false, true},
		{"id < 1.5", "", "1", false, true},
		{"id = 1.5", "", "", true, true},
		{"id >= -3", "-3", "", false, true},
		{"x > 3", "", "", false, false},
		{"id + 0 > 3", "", "", false, false}, // not a bare column
		// Past ±2^53 float compares lose integer exactness; pushdown must
		// decline so the predicate behaves the same as its residual form.
		{"id >= 9007199254740993", "", "", false, false},
		{"id = 18000000000000000000", "", "", false, false},
		{"id > -9007199254740995", "", "", false, false},
	}
	for _, c := range cases {
		stmt, err := Parse("SELECT id FROM t WHERE " + c.where)
		if err != nil {
			t.Fatalf("parse %q: %v", c.where, err)
		}
		b, residual := extractKeyBounds(stmt.Where, &schema)
		if c.empty != b.empty {
			t.Errorf("%q: empty = %v, want %v", c.where, b.empty, c.empty)
			continue
		}
		check := func(name, want string, has bool, got int64) {
			t.Helper()
			if want == "" {
				if has {
					t.Errorf("%q: unexpected %s bound %d", c.where, name, got)
				}
				return
			}
			if !has {
				t.Errorf("%q: missing %s bound (want %s)", c.where, name, want)
				return
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%q: %s = %d, want %s", c.where, name, got, want)
			}
		}
		check("lo", c.lo, b.hasLo, b.lo)
		check("hi", c.hi, b.hasHi, b.hi)
		if c.residualNil != (residual == nil) {
			t.Errorf("%q: residual = %v, want nil=%v", c.where, residual, c.residualNil)
		}
	}
}

// TestPointQuerySizesBatchFromKeyRange: the batch of a pushed-down key
// range holds as many rows as the range has keys, so a one-row query
// does not allocate (and zero) batchSize-row vectors — it used to cost
// 8 kB of keys plus 48 kB per referenced column.
func TestPointQuerySizesBatchFromKeyRange(t *testing.T) {
	for _, c := range []struct {
		b    keyBounds
		want int
	}{
		{unboundedKeys(), 1024},
		{keyBounds{lo: 7, hi: 7, hasLo: true, hasHi: true}, 1},
		{keyBounds{lo: 10, hi: 19, hasLo: true, hasHi: true}, 10},
		{keyBounds{lo: -5, hasLo: true}, 1024},
		{keyBounds{lo: math.MaxInt64 - 2, hasLo: true}, 3},
		{keyBounds{hi: math.MinInt64, hasHi: true}, 1},
		{keyBounds{lo: 0, hi: 5000, hasLo: true, hasHi: true}, 1024},
		{keyBounds{lo: 9, hi: 3, hasLo: true, hasHi: true, empty: true}, 1},
	} {
		if got := c.b.batchRows(1024); got != c.want {
			t.Errorf("batchRows(%+v) = %d, want %d", c.b, got, c.want)
		}
	}

	db := testDB(t)
	for _, c := range []struct {
		q   string
		max uint64 // bytes allocated per run
	}{
		{"SELECT v1 FROM Tscalar WHERE id = 42", 4 << 10},
		{"SELECT v1, b FROM Tscalar WHERE id = 42", 8 << 10}, // + the binary column's first arena chunk
	} {
		run := func() {
			res, err := Run(db, c.q)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 42 {
				t.Fatalf("Run(%q) = %v, %v", c.q, res, err)
			}
		}
		run()
		const runs = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		if perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs; perOp > c.max {
			t.Errorf("%q allocates %d bytes per run, want <= %d", c.q, perOp, c.max)
		}
	}
}

// TestUDFOverLargeMaxRowsStreams: a UDF over a column of multi-chunk
// VARBINARY(MAX) arrays keeps about one batch budget of them live, not
// one batchSize of them: the scan ends a batch at 1 MiB of referenced
// blob bytes and CallBatch marshals a bounded run of frames at a time.
// The probe UDF collects garbage and samples the live heap on every
// call, so the measure is what the query holds, not what the collector
// has yet to free.
func TestUDFOverLargeMaxRowsStreams(t *testing.T) {
	db := memDB(t)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("cubes", s)
	if err != nil {
		t.Fatal(err)
	}
	const rows, size = 64, 128 << 10 // 8 MiB of arrays, 16 chunk pages each
	rng := rand.New(rand.NewSource(5))
	for id := int64(0); id < rows; id++ {
		payload := make([]byte, size)
		rng.Read(payload) // incompressible: stored as raw blocks
		if err := tbl.Insert([]engine.Value{engine.IntValue(id), engine.BinaryMaxValue(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	var peak uint64
	db.Funcs().Register("t.Probe", 1, func(args []engine.Value) (engine.Value, error) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
		return engine.IntValue(int64(len(args[0].B))), nil
	})
	for _, q := range []string{
		"SELECT SUM(t.Probe(a)) FROM cubes",
		"SELECT SUM(t.Probe(a)) FROM cubes WHERE t.Probe(a) > 0",
	} {
		run := func() {
			res, err := RunWith(db, q, ExecOptions{Parallelism: 1})
			if err != nil || res.Rows[0][0].F != rows*size {
				t.Fatalf("%s = %v, %v", q, res, err)
			}
		}
		run() // warm the pool's frames and the pooled boundary buffer
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		peak = 0
		run()
		if grown := int64(peak) - int64(m.HeapAlloc); grown > 3<<20 {
			t.Errorf("%s: live heap grew by %d KiB over %d KiB of arrays; want about one 1 MiB batch",
				q, grown>>10, rows*size>>10)
		}
	}
}

// TestShortCircuitEvaluatesOnlyUndecidedRows: AND and OR evaluate their
// right operand for exactly the rows the left operand leaves undecided —
// none, some or all of a three-row batch — in a filter and in a SELECT
// item. The right operand is a UDF that records the row it was called for
// and fails the test when the left operand had already decided that row.
func TestShortCircuitEvaluatesOnlyUndecidedRows(t *testing.T) {
	db := memDB(t)
	s, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(id)}); err != nil {
			t.Fatal(err)
		}
	}
	var undecided map[int64]bool
	var called []int64
	// True for odd ids.
	db.Funcs().Register("t.Odd", 1, func(args []engine.Value) (engine.Value, error) {
		if !undecided[args[0].I] {
			t.Errorf("right operand evaluated for row %d, which the left operand decided", args[0].I)
		}
		called = append(called, args[0].I)
		return engine.IntValue(args[0].I % 2), nil
	})
	for _, c := range []struct {
		expr      string
		undecided []int64 // rows the right operand must see, in order
		truth     []int64 // the expression's value per row
	}{
		{"(id + 0) >= 0 AND t.Odd(id)", []int64{0, 1, 2}, []int64{0, 1, 0}},
		{"(id + 0) >= 1 AND t.Odd(id)", []int64{1, 2}, []int64{0, 1, 0}},
		{"(id + 0) <> 1 AND t.Odd(id)", []int64{0, 2}, []int64{0, 0, 0}},
		{"(id + 0) > 5 AND t.Odd(id)", nil, []int64{0, 0, 0}},
		{"(id + 0) > 5 OR t.Odd(id)", []int64{0, 1, 2}, []int64{0, 1, 0}},
		{"(id + 0) < 1 OR t.Odd(id)", []int64{1, 2}, []int64{1, 1, 0}},
		{"(id + 0) = 1 OR t.Odd(id)", []int64{0, 2}, []int64{0, 1, 0}},
		{"(id + 0) >= 0 OR t.Odd(id)", nil, []int64{1, 1, 1}},
	} {
		undecided = make(map[int64]bool)
		for _, id := range c.undecided {
			undecided[id] = true
		}
		for _, q := range []string{
			"SELECT " + c.expr + " FROM t",
			"SELECT id FROM t WHERE " + c.expr,
		} {
			called = nil
			res, err := RunWith(db, q, ExecOptions{batchSize: 3})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if fmt.Sprint(called) != fmt.Sprint(c.undecided) {
				t.Errorf("%s: right operand called for rows %v, want %v", q, called, c.undecided)
			}
			var got []int64
			for _, row := range res.Rows {
				got = append(got, row[0].I)
			}
			want := c.truth
			if strings.Contains(q, "WHERE") {
				want = nil
				for id, v := range c.truth {
					if v != 0 {
						want = append(want, int64(id))
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s = %v, want %v", q, got, want)
			}
		}
	}
}
