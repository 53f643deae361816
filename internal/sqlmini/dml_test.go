package sqlmini

import (
	"errors"
	"testing"

	"sqlarray/internal/arraysugar"
	"sqlarray/internal/btree"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// registerArrayFuncs installs the handful of T-SQL array functions the
// DML tests use (tsql.RegisterAll would create an import cycle here).
func registerArrayFuncs(db *engine.DB) {
	vec := func(args []engine.Value) (engine.Value, error) {
		vals := make([]float64, len(args))
		for i, a := range args {
			f, err := a.AsFloat()
			if err != nil {
				return engine.Null, err
			}
			vals[i] = f
		}
		return engine.BinaryValue(core.Vector(vals...).Bytes()), nil
	}
	ivec := func(args []engine.Value) (engine.Value, error) {
		vals := make([]int, len(args))
		for i, a := range args {
			n, err := a.AsInt()
			if err != nil {
				return engine.Null, err
			}
			vals[i] = int(n)
		}
		return engine.BinaryValue(core.IntVector(vals...).Bytes()), nil
	}
	item := func(args []engine.Value) (engine.Value, error) {
		b, err := args[0].AsBinary()
		if err != nil {
			return engine.Null, err
		}
		a, err := core.Wrap(b)
		if err != nil {
			return engine.Null, err
		}
		i, err := args[1].AsInt()
		if err != nil {
			return engine.Null, err
		}
		f, err := a.Item(int(i))
		if err != nil {
			return engine.Null, err
		}
		return engine.FloatValue(f), nil
	}
	for n := 1; n <= 3; n++ {
		name := []string{"", "1", "2", "3"}[n]
		db.Funcs().Register("FloatArray.Vector_"+name, n, vec)
		db.Funcs().Register("IntArray.Vector_"+name, n, ivec)
	}
	db.Funcs().Register("FloatArray.Item_1", 2, item)
	db.Funcs().Register("FloatArrayMax.Item_1", 2, item)
}

func dmlDB(t *testing.T) *engine.DB {
	t.Helper()
	db := memDB(t)
	registerArrayFuncs(db)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
		engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", s); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *engine.DB, sql string) *ExecResult {
	t.Helper()
	res, err := Execute(db, sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestInsertUpdateDeleteSQL(t *testing.T) {
	db := dmlDB(t)
	res := mustExec(t, db, `INSERT INTO t (id, x, v) VALUES
		(1, 1.5, FloatArray.Vector_3(1,2,3)),
		(2, 2.5, FloatArray.Vector_3(4,5,6)),
		(3, 3.5, NULL)`)
	if res.RowsAffected != 3 {
		t.Fatalf("INSERT affected %d rows, want 3", res.RowsAffected)
	}
	// Positional insert over the full schema.
	mustExec(t, db, `INSERT INTO t VALUES (4, 4.5, NULL, NULL)`)
	if got := scalarFloat(t, db, `SELECT COUNT(*) FROM t`); got != 4 {
		t.Fatalf("COUNT after inserts = %v", got)
	}

	// UPDATE with expression over the old row value.
	res = mustExec(t, db, `UPDATE t SET x = x * 10 WHERE id >= 2 AND id <= 3`)
	if res.RowsAffected != 2 {
		t.Fatalf("UPDATE affected %d rows, want 2", res.RowsAffected)
	}
	if got := scalarFloat(t, db, `SELECT SUM(x) FROM t`); got != 1.5+25+35+4.5 {
		t.Fatalf("SUM(x) after update = %v", got)
	}

	// DELETE with a residual (non-sargable) predicate.
	res = mustExec(t, db, `DELETE FROM t WHERE x > 20`)
	if res.RowsAffected != 2 {
		t.Fatalf("DELETE affected %d rows, want 2", res.RowsAffected)
	}
	if got := scalarFloat(t, db, `SELECT COUNT(*) FROM t`); got != 2 {
		t.Fatalf("COUNT after delete = %v", got)
	}
	// Duplicate key insert surfaces the engine error.
	if _, err := Execute(db, `INSERT INTO t VALUES (1, 0, NULL, NULL)`); !errors.Is(err, btree.ErrDuplicate) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
}

// TestUpdateKeyRangePushdown: a sargable WHERE on the clustered key
// descends the tree instead of scanning the table — same assertion
// shape as the SELECT pushdown benchmark, on the UPDATE read phase.
func TestUpdateKeyRangePushdown(t *testing.T) {
	db := dmlDB(t)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20000; i++ {
		if err := tbl.Insert([]engine.Value{
			engine.IntValue(i), engine.FloatValue(float64(i)), engine.Null, engine.Null,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	start := metric(t, db.Metrics(), "pages.logical_reads")
	mustExec(t, db, `UPDATE t SET x = 0 WHERE id = 17000`)
	point := metric(t, db.Metrics(), "pages.logical_reads") - start

	if err := db.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	start = metric(t, db.Metrics(), "pages.logical_reads")
	mustExec(t, db, `UPDATE t SET x = 0 WHERE x < -1`) // matches nothing, full scan
	full := metric(t, db.Metrics(), "pages.logical_reads") - start

	if point*10 >= full {
		t.Fatalf("point UPDATE read %d pages vs full-scan UPDATE %d — pushdown not working", point, full)
	}
	t.Logf("point UPDATE: %d logical reads; full-scan UPDATE: %d", point, full)
}

// TestUpdateSubarraySugar drives the §8 assignment sugar end to end:
// arraysugar translates the subscripted SET target, the executor
// lowers it to an in-place update — chunk-writes only — for MAX
// columns and a row patch for short ones.
func TestUpdateSubarraySugar(t *testing.T) {
	db := dmlDB(t)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Row 1: short inline 5-vector. Row 2: multi-chunk MAX array.
	short := core.Vector(0, 1, 2, 3, 4)
	big := make([]float64, 16000)
	for i := range big {
		big[i] = float64(i)
	}
	bigArr, err := core.FromFloat64s(core.Max, core.Float64, big, len(big))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{
		engine.IntValue(1), engine.FloatValue(0), engine.BinaryValue(short.Bytes()), engine.Null,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{
		engine.IntValue(2), engine.FloatValue(0), engine.Null, engine.BinaryMaxValue(bigArr.Bytes()),
	}); err != nil {
		t.Fatal(err)
	}
	cols := arraysugar.Columns{"v": "FloatArray", "m": "FloatArrayMax"}
	exec := func(q string) *ExecResult {
		t.Helper()
		translated, err := arraysugar.Translate(q, cols)
		if err != nil {
			t.Fatalf("translate %q: %v", q, err)
		}
		return mustExec(t, db, translated)
	}

	// Slice assignment on the short column.
	exec(`UPDATE t SET v[1:4] = FloatArray.Vector_3(10, 20, 30) WHERE id = 1`)
	if got := scalarFloat(t, db, `SELECT FloatArray.Item_1(v, 2) FROM t WHERE id = 1`); got != 20 {
		t.Fatalf("short slice assign: v[2] = %v, want 20", got)
	}
	if got := scalarFloat(t, db, `SELECT FloatArray.Item_1(v, 0) FROM t WHERE id = 1`); got != 0 {
		t.Fatalf("short slice assign touched v[0]: %v", got)
	}
	// Item assignment (scalar RHS) on the short column.
	exec(`UPDATE t SET v[0] = 99 WHERE id = 1`)
	if got := scalarFloat(t, db, `SELECT FloatArray.Item_1(v, 0) FROM t WHERE id = 1`); got != 99 {
		t.Fatalf("item assign: v[0] = %v, want 99", got)
	}

	// Slice assignment on the MAX column writes only the touched chunks.
	b0 := metric(t, db.Metrics(), "blob.chunks_written")
	exec(`UPDATE t SET m[8000:8003] = FloatArray.Vector_3(-1, -2, -3) WHERE id = 2`)
	touched := metric(t, db.Metrics(), "blob.chunks_written") - b0
	nChunks := 16 // 16000 float64s = 128000 bytes over 8096-byte chunks
	if touched == 0 || touched >= uint64(nChunks) {
		t.Fatalf("MAX slice assign wrote %d chunks, want a small fraction of %d", touched, nChunks)
	}
	if got := scalarFloat(t, db, `SELECT FloatArrayMax.Item_1(m, 8001) FROM t WHERE id = 2`); got != -2 {
		t.Fatalf("MAX slice assign: m[8001] = %v, want -2", got)
	}
	if got := scalarFloat(t, db, `SELECT FloatArrayMax.Item_1(m, 7999) FROM t WHERE id = 2`); got != 7999 {
		t.Fatalf("MAX slice assign touched m[7999]: %v", got)
	}
	// Item assignment on the MAX column.
	exec(`UPDATE t SET m[0] = 123.25 WHERE id = 2`)
	if got := scalarFloat(t, db, `SELECT FloatArrayMax.Item_1(m, 0) FROM t WHERE id = 2`); got != 123.25 {
		t.Fatalf("MAX item assign: m[0] = %v, want 123.25", got)
	}
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
}

func TestDMLParseErrors(t *testing.T) {
	db := dmlDB(t)
	for _, q := range []string{
		`INSERT INTO t VALUES (1, 2)`,              // arity mismatch
		`INSERT INTO t (id, nosuch) VALUES (1, 2)`, // unknown column
		`INSERT INTO t VALUES (x, 0, NULL, NULL)`,  // column ref in INSERT
		`UPDATE t SET COUNT(x) = 1`,                // unassignable target
		`UPDATE t SET x = SUM(x)`,                  // aggregate in SET
		`DELETE FROM t WHERE SUM(x) > 1`,           // aggregate in WHERE
		`UPDATE nosuch SET x = 1`,                  // unknown table
	} {
		if _, err := Execute(db, q); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", q)
		}
	}
}
