package sqlarray

// Integration tests crossing every layer: SQL text -> parser -> plan ->
// clustered scan -> UDF boundary -> array core -> blob/page storage.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
)

// vectorTable creates a table with an inline array column and n rows of
// 5-vectors [i, i/2, i², √i, 1].
func vectorTable(t *testing.T, db *Database, name string, n int) {
	t.Helper()
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(name, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := float64(i)
		a := Vector(x, x/2, x*x, math.Sqrt(x), 1)
		if err := tbl.Insert([]engine.Value{engine.IntValue(int64(i)), engine.BinaryValue(a.Bytes())}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSQLOverArrayColumn(t *testing.T) {
	db := memDatabase(t)
	vectorTable(t, db, "obs", 100)
	// Aggregate over an array element across all rows.
	got, err := db.QueryScalarFloat("SELECT SUM(FloatArray.Item_1(v, 0)) FROM obs")
	if err != nil {
		t.Fatal(err)
	}
	if got != 99*100/2 {
		t.Errorf("sum of first components = %g", got)
	}
	// Array-aggregate per row, then SQL aggregate across rows:
	// AVG over rows of the per-array sum.
	got, err = db.QueryScalarFloat("SELECT MAX(FloatArray.Sum(v)) FROM obs")
	if err != nil {
		t.Fatal(err)
	}
	x := 99.0
	want := x + x/2 + x*x + math.Sqrt(x) + 1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MAX(Sum(v)) = %g, want %g", got, want)
	}
	// WHERE on array contents.
	got, err = db.QueryScalarFloat("SELECT COUNT(*) FROM obs WHERE FloatArray.Item_1(v, 2) > 100")
	if err != nil {
		t.Fatal(err)
	}
	if got != 89 { // i² > 100 for i >= 11
		t.Errorf("filtered count = %g, want 89", got)
	}
}

func TestArraySubscriptDialectEndToEnd(t *testing.T) {
	db := memDatabase(t)
	vectorTable(t, db, "obs", 50)
	cols := ArrayColumns{"v": "FloatArray"}
	// The §8 sugar: v[0] instead of FloatArray.Item_1(v, 0).
	res, err := db.QueryArray("SELECT SUM(v[0]) FROM obs WHERE v[2] <= 100", cols)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 55 { // i <= 10: sum 0..10
		t.Errorf("sugar query = %v, want 55", v)
	}
	// Slices through the sugar: Sum over a subarray.
	got, err := db.QueryArray("SELECT TOP 1 FloatArray.Sum(v[0:2]) FROM obs WHERE id = 4", cols)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := got.Rows[0][0].AsFloat()
	if f != 4+2 { // elements 0 and 1 of row 4: 4, 2
		t.Errorf("slice sum = %g, want 6", f)
	}
	// Translation error surfaces cleanly.
	if _, err := db.QueryArray("SELECT nope[0] FROM obs", cols); err == nil {
		t.Error("unknown column subscript must fail")
	}
}

func TestTypeMismatchThroughSQL(t *testing.T) {
	db := memDatabase(t)
	vectorTable(t, db, "obs", 5)
	// The float column handed to an int-schema function: the header
	// type flag catches it per §3.5.
	_, err := db.Query("SELECT SUM(IntArray.Item_1(v, 0)) FROM obs")
	if !errors.Is(err, core.ErrTypeMismatch) {
		t.Errorf("type mismatch through SQL: %v", err)
	}
	// Wrong storage class similarly.
	_, err = db.Query("SELECT SUM(FloatArrayMax.Item_1(v, 0)) FROM obs")
	if !errors.Is(err, core.ErrClassMismatch) {
		t.Errorf("class mismatch through SQL: %v", err)
	}
	// Out-of-bounds index inside the UDF.
	_, err = db.Query("SELECT SUM(FloatArray.Item_1(v, 99)) FROM obs")
	if !errors.Is(err, core.ErrBounds) {
		t.Errorf("bounds error through SQL: %v", err)
	}
}

func TestCorruptBlobDetectedThroughSQL(t *testing.T) {
	db := memDatabase(t)
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
	)
	tbl, err := db.CreateTable("bad", s)
	if err != nil {
		t.Fatal(err)
	}
	blob := Vector(1, 2, 3).Bytes()
	corrupt := append([]byte(nil), blob...)
	corrupt[0] = 0x00 // destroy the magic byte
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryValue(corrupt)}); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("SELECT SUM(FloatArray.Item_1(v, 0)) FROM bad")
	if !errors.Is(err, core.ErrBadHeader) {
		t.Errorf("corrupt blob through SQL: %v", err)
	}
}

func TestPaperSnippetsVerbatim(t *testing.T) {
	// The §5.1 code snippets, as close to verbatim as the dialect allows
	// (DECLARE folds into nested calls).
	db := memDatabase(t)
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT FloatArray.Item_1(FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0), 3) FROM dual", 4},
		{"SELECT FloatArray.Item_2(FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4), 1, 0) FROM dual", 0.2},
		{"SELECT FloatArray.Item_1(FloatArray.UpdateItem_1(FloatArray.Vector_5(1,2,3,4,5), 3, 4.5), 3) FROM dual", 4.5},
	}
	for _, c := range cases {
		got, err := db.QueryScalarFloat(c.sql)
		if err != nil {
			t.Errorf("%q: %v", c.sql, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %g, want %g", c.sql, got, c.want)
		}
	}
}

func TestFromQueryThroughSQLText(t *testing.T) {
	// FromQuery's inner query argument is a SQL string literal — the
	// exact §4.2 pattern, nested query and all.
	db := memDatabase(t)
	s, _ := engine.NewSchema(
		engine.Column{Name: "i", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	tbl, err := db.CreateTable("cells", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(i), engine.FloatValue(float64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(
		"SELECT FloatArrayMax.Sum(FloatArrayMax.VectorFromQuery(8, 'SELECT i, x FROM cells')) FROM dual")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Scalar()
	if v.F != 280 {
		t.Errorf("FromQuery sum = %v, want 280", v)
	}
}

func TestFileBackedDatabaseEndToEnd(t *testing.T) {
	// The same integration path over a real file on disk.
	dir := t.TempDir()
	disk, err := pages.OpenFileDisk(dir + "/test.db")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(Options{Disk: disk, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	vectorTable(t, db, "obs", 2000)
	if err := db.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryScalarFloat("SELECT SUM(FloatArray.Item_1(v, 0)) FROM obs")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1999*2000/2 {
		t.Errorf("file-backed sum = %g", got)
	}
	if metric(t, db.Metrics(), "pages.physical_reads") == 0 {
		t.Error("expected real file reads after cache drop")
	}
}

func TestExprTextSurvivesTranslation(t *testing.T) {
	// Sanity: translated queries stay valid SQL for the parser.
	q, err := TranslateArraySyntax(
		"SELECT v[0] + v[1:3], 'v[9]' FROM obs WHERE v[1] >= 2 AND id <> 0",
		ArrayColumns{"v": "FloatArray"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(q, "[") && !strings.Contains(q, "'v[9]'") {
		t.Errorf("untranslated subscript remains: %q", q)
	}
}

// TestExecRunsDMLAndSelect drives the root DML entry point: each DML
// statement reports the rows it affected, a SELECT returns its result
// set, and an UPDATE naming an unknown column fails without changing
// the table.
func TestExecRunsDMLAndSelect(t *testing.T) {
	db := memDatabase(t)
	csvTable(t, db, "t")
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{"INSERT INTO t (id, x) VALUES (1, 0.5), (2, 1.5), (3, 2.5)", 3},
		{"UPDATE t SET x = 10 WHERE id >= 2", 2},
		{"DELETE FROM t WHERE id = 1", 1},
	} {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.RowsAffected != c.want || res.Result != nil {
			t.Errorf("%s: %d rows affected, result %v; want %d, none", c.sql, res.RowsAffected, res.Result, c.want)
		}
	}
	rows := func() string {
		t.Helper()
		res, err := db.Exec("SELECT id, x FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Result == nil {
			t.Fatal("SELECT through Exec returned no result set")
		}
		return fmt.Sprint(res.Result.Columns, res.Result.Rows)
	}
	before := rows()
	if want := fmt.Sprint([]string{"id", "x"}, [][]engine.Value{
		{engine.IntValue(2), engine.FloatValue(10)},
		{engine.IntValue(3), engine.FloatValue(10)},
	}); before != want {
		t.Fatalf("SELECT through Exec = %s, want %s", before, want)
	}
	if _, err := db.Exec("UPDATE t SET x = 99, nope = 1 WHERE id = 2"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("UPDATE of an unknown column: %v, want an error naming it", err)
	}
	if after := rows(); after != before {
		t.Errorf("failed UPDATE changed the table: %s, was %s", after, before)
	}
}
