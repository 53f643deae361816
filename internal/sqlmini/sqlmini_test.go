package sqlmini

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// memDB opens an in-memory database without a log.
func memDB(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// metric reads one series of a metrics registry. A name the registry
// does not hold fails the test, so a misspelt name cannot pass an == 0
// check.
func metric(t testing.TB, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metrics registry has no series %q", name)
	}
	return v
}

// testDB builds a small Tscalar-style table plus UDFs.
func testDB(t *testing.T) *engine.DB {
	t.Helper()
	db := memDB(t)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v1", Type: engine.ColFloat64},
		engine.Column{Name: "v2", Type: engine.ColFloat64},
		engine.Column{Name: "b", Type: engine.ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("Tscalar", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		err := tbl.Insert([]engine.Value{
			engine.IntValue(i),
			engine.FloatValue(float64(i)),
			engine.FloatValue(float64(i) * 10),
			engine.BinaryValue([]byte{byte(i)}),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Funcs().Register("dbo.EmptyFunction", 2, func(args []engine.Value) (engine.Value, error) {
		return engine.FloatValue(0), nil
	})
	db.Funcs().Register("dbo.Twice", 1, func(args []engine.Value) (engine.Value, error) {
		f, err := args[0].AsFloat()
		if err != nil {
			return engine.Null, err
		}
		return engine.FloatValue(2 * f), nil
	})
	return db
}

func scalarFloat(t *testing.T, db *engine.DB, q string) float64 {
	t.Helper()
	res, err := Run(db, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatalf("Scalar(%q): %v", q, err)
	}
	f, err := v.AsFloat()
	if err != nil {
		t.Fatalf("AsFloat(%q): %v", q, err)
	}
	return f
}

func TestCountStar(t *testing.T) {
	db := testDB(t)
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar"); got != 100 {
		t.Errorf("COUNT(*) = %g", got)
	}
	// The paper's exact form with the NOLOCK hint.
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)"); got != 100 {
		t.Errorf("COUNT(*) WITH (NOLOCK) = %g", got)
	}
}

func TestSumAvgMinMax(t *testing.T) {
	db := testDB(t)
	if got := scalarFloat(t, db, "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)"); got != 4950 {
		t.Errorf("SUM = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT AVG(v1) FROM Tscalar"); got != 49.5 {
		t.Errorf("AVG = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT MIN(v2) FROM Tscalar"); got != 0 {
		t.Errorf("MIN = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT MAX(v2) FROM Tscalar"); got != 990 {
		t.Errorf("MAX = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(v1) FROM Tscalar"); got != 100 {
		t.Errorf("COUNT(v1) = %g", got)
	}
}

func TestAggregateArithmetic(t *testing.T) {
	db := testDB(t)
	if got := scalarFloat(t, db, "SELECT SUM(v1) / COUNT(*) FROM Tscalar"); got != 49.5 {
		t.Errorf("SUM/COUNT = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT SUM(v1 + v2) FROM Tscalar"); got != 4950*11 {
		t.Errorf("SUM(v1+v2) = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT 2 * SUM(v1) FROM Tscalar"); got != 9900 {
		t.Errorf("2*SUM = %g", got)
	}
}

func TestMultipleAggregates(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT COUNT(*), SUM(v1), MIN(v1), MAX(v1) FROM Tscalar")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.Rows[0]))
	}
	if res.Rows[0][0].I != 100 || res.Rows[0][1].F != 4950 ||
		res.Rows[0][2].F != 0 || res.Rows[0][3].F != 99 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestWhere(t *testing.T) {
	db := testDB(t)
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE v1 >= 50"); got != 50 {
		t.Errorf("WHERE >= : %g", got)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE v1 >= 10 AND v1 < 20"); got != 10 {
		t.Errorf("WHERE AND: %g", got)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE v1 = 5 OR v1 = 7"); got != 2 {
		t.Errorf("WHERE OR: %g", got)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE NOT v1 < 90"); got != 10 {
		t.Errorf("WHERE NOT: %g", got)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE v1 <> 0"); got != 99 {
		t.Errorf("WHERE <>: %g", got)
	}
	if got := scalarFloat(t, db, "SELECT SUM(v1) FROM Tscalar WHERE id % 2 = 0"); got != 2450 {
		t.Errorf("WHERE %%: %g", got)
	}
}

func TestProjectionScan(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT id, v1 * 2 AS doubled FROM Tscalar WHERE id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Columns[0] != "id" || res.Columns[1] != "doubled" {
		t.Errorf("columns = %v", res.Columns)
	}
	for i, row := range res.Rows {
		if row[0].I != int64(i) || row[1].F != float64(2*i) {
			t.Errorf("row %d = %v", i, row)
		}
	}
}

func TestTop(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT TOP 7 id FROM Tscalar")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("TOP 7 returned %d rows", len(res.Rows))
	}
}

func TestUDFInQuery(t *testing.T) {
	db := testDB(t)
	// The paper's Query 5 shape: an empty UDF under SUM.
	if got := scalarFloat(t, db, "SELECT SUM(dbo.EmptyFunction(b, 0)) FROM Tscalar WITH (NOLOCK)"); got != 0 {
		t.Errorf("empty UDF sum = %g", got)
	}
	if calls := metric(t, db.Metrics(), "udf.calls"); calls != 100 {
		t.Errorf("UDF calls = %d, want one per row", calls)
	}
	if got := scalarFloat(t, db, "SELECT SUM(dbo.Twice(v1)) FROM Tscalar"); got != 9900 {
		t.Errorf("twice sum = %g", got)
	}
}

func TestBareAliasAndStringLiteral(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT COUNT(*) n FROM Tscalar")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "n" {
		t.Errorf("alias = %q", res.Columns[0])
	}
	db.Funcs().Register("dbo.strlen", 1, func(args []engine.Value) (engine.Value, error) {
		b, err := args[0].AsBinary()
		if err != nil {
			return engine.Null, err
		}
		return engine.IntValue(int64(len(b))), nil
	})
	res, err = Run(db, "SELECT TOP 1 dbo.strlen('it''s') FROM Tscalar")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4 {
		t.Errorf("strlen = %v", res.Rows[0][0])
	}
}

func TestNullSemantics(t *testing.T) {
	db := memDB(t)
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	tbl, _ := db.CreateTable("t", s)
	for i := int64(0); i < 10; i++ {
		v := engine.FloatValue(float64(i))
		if i%2 == 0 {
			v = engine.Null
		}
		if err := tbl.Insert([]engine.Value{engine.IntValue(i), v}); err != nil {
			t.Fatal(err)
		}
	}
	// COUNT skips NULLs; COUNT(*) does not.
	res, err := Run(db, "SELECT COUNT(*), COUNT(x), SUM(x) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I != 10 || row[1].I != 5 || row[2].F != 1+3+5+7+9 {
		t.Errorf("row = %v", row)
	}
	// SUM over all-NULL is NULL.
	res, err = Run(db, "SELECT SUM(x) FROM t WHERE id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("SUM over empty/NULL = %v", res.Rows[0][0])
	}
	// NULL comparisons are not true: only the five non-NULL x (1,3,5,7,9)
	// pass the filter.
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM t WHERE x > 0"); got != 5 {
		t.Errorf("NULL filter count = %g", got)
	}
}

func TestUnaryMinusPrecedence(t *testing.T) {
	db := testDB(t)
	if got := scalarFloat(t, db, "SELECT TOP 1 -v1 + 3 * 2 FROM Tscalar WHERE id = 1"); got != 5 {
		t.Errorf("-1 + 6 = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT TOP 1 (v1 + 3) * 2 FROM Tscalar WHERE id = 1"); got != 8 {
		t.Errorf("(1+3)*2 = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT TOP 1 +v1 FROM Tscalar WHERE id = 9"); got != 9 {
		t.Errorf("unary plus = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT TOP 1 10 - 4 - 3 FROM Tscalar"); got != 3 {
		t.Errorf("left assoc = %g", got)
	}
	if got := scalarFloat(t, db, "SELECT TOP 1 7 / 2 FROM Tscalar"); got != 3.5 {
		t.Errorf("division = %g", got)
	}
}

func TestParseErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"",
		"UPDATE Tscalar",
		"SELECT FROM Tscalar",
		"SELECT COUNT(* FROM Tscalar",
		"SELECT v1 FROM",
		"SELECT v1 FROM Tscalar WITH NOLOCK",             // missing parens
		"SELECT v1 FROM Tscalar WHERE",                   // dangling where
		"SELECT v1 Tscalar nonsense extra",               // trailing garbage
		"SELECT dbo. FROM Tscalar",                       // dangling qualifier
		"SELECT dbo.name FROM Tscalar",                   // qualified non-call
		"SELECT TOP x v1 FROM Tscalar",                   // bad TOP
		"SELECT 'unterminated FROM Tscalar",              // bad string
		"SELECT v1 ~ v2 FROM Tscalar",                    // bad char
		"SELECT COUNT(*) FROM Tscalar WHERE SUM(v1) > 0", // agg in WHERE
	}
	for _, q := range bad {
		if _, err := Run(db, q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	if _, err := Run(db, "SELECT COUNT(*) FROM nope"); !errors.Is(err, engine.ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := Run(db, "SELECT nosuchcol FROM Tscalar"); !errors.Is(err, engine.ErrNoColumn) {
		t.Errorf("missing column: %v", err)
	}
	if _, err := Run(db, "SELECT dbo.nosuchfunc(v1) FROM Tscalar"); !errors.Is(err, engine.ErrNoFunc) {
		t.Errorf("missing func: %v", err)
	}
	if _, err := Run(db, "SELECT SUM(b) FROM Tscalar"); err == nil {
		t.Error("summing binary must fail")
	}
	// A bare column beside an aggregate has no defining row (no GROUP BY
	// in the dialect) and must be a plan-time error, not a panic.
	if _, err := Run(db, "SELECT id, COUNT(*) FROM Tscalar"); err == nil {
		t.Error("bare column in aggregate query must fail")
	}
	if _, err := Run(db, "SELECT v1 + SUM(v1) FROM Tscalar"); err == nil {
		t.Error("bare column inside aggregate projection must fail")
	}
	// Columns inside the aggregate argument and in WHERE stay legal.
	if _, err := Run(db, "SELECT SUM(v1 + v2) FROM Tscalar WHERE v1 > 3"); err != nil {
		t.Errorf("columns under aggregate/WHERE: %v", err)
	}
}

func TestExprString(t *testing.T) {
	stmt, err := Parse("SELECT SUM(floatarray.Item_1(v1, 0)) FROM Tscalar")
	if err != nil {
		t.Fatal(err)
	}
	s := exprText(stmt.Items[0].Expr)
	if !strings.Contains(s, "SUM(") || !strings.Contains(s, "floatarray.item_1") {
		t.Errorf("exprText = %q", s)
	}
}

func TestScalarHelperErrors(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT id, v1 FROM Tscalar WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar(); err == nil {
		t.Error("multi-row Scalar must fail")
	}
}

func TestComparisonNaNSafety(t *testing.T) {
	db := memDB(t)
	s, _ := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
	)
	tbl, _ := db.CreateTable("t", s)
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.FloatValue(math.NaN())}); err != nil {
		t.Fatal(err)
	}
	// NaN compares false everywhere; no panic.
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM t WHERE x > 0 OR x <= 0"); got != 0 {
		t.Errorf("NaN filter = %g", got)
	}
}

// TestMinMaxOverNaN: a NaN input makes MIN and MAX NaN wherever in the
// scan it arrives and however the plan partitions the rows, as it makes
// SUM and AVG. The accumulators used to keep a NaN only if it was the
// first value they saw (f < min is false for NaN), so the answer depended
// on the row's position and on the worker count.
func TestMinMaxOverNaN(t *testing.T) {
	const rows = 9
	for _, c := range []struct {
		name string
		at   int64
	}{{"first", 0}, {"middle", rows / 2}, {"last", rows - 1}} {
		db := memDB(t)
		s, err := engine.NewSchema(
			engine.Column{Name: "id", Type: engine.ColInt64},
			engine.Column{Name: "x", Type: engine.ColFloat64},
		)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t", s)
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < rows; id++ {
			x := float64(id)
			if id == c.at {
				x = math.NaN()
			}
			if err := tbl.Insert([]engine.Value{engine.IntValue(id), engine.FloatValue(x)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, par := range []int{1, 2} {
			res, err := RunWith(db, "SELECT MIN(x), MAX(x), MIN(x + 1), COUNT(x) FROM t",
				ExecOptions{Parallelism: par, parallelThreshold: 1, batchSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			row := res.Rows[0]
			for i, name := range []string{"MIN(x)", "MAX(x)", "MIN(x + 1)"} {
				if !math.IsNaN(row[i].F) {
					t.Errorf("NaN %s, Parallelism %d: %s = %v, want NaN", c.name, par, name, row[i])
				}
			}
			if row[3].I != rows {
				t.Errorf("NaN %s, Parallelism %d: COUNT(x) = %v, want %d", c.name, par, row[3], rows)
			}
		}
	}
}

func TestLimitAlias(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT id FROM Tscalar LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("LIMIT 7 returned %d rows", len(res.Rows))
	}
	res, err = Run(db, "SELECT id FROM Tscalar WHERE id >= 40 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].I != 40 {
		t.Errorf("LIMIT with WHERE = %v", res.Rows)
	}
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar WHERE id < 10 LIMIT 1"); got != 10 {
		t.Errorf("aggregate with LIMIT = %g", got)
	}
	bad := []string{
		"SELECT id FROM Tscalar LIMIT 0",
		"SELECT id FROM Tscalar LIMIT x",
		"SELECT id FROM Tscalar LIMIT -3",
		"SELECT TOP 5 id FROM Tscalar LIMIT 5",        // both forms at once
		"SELECT id FROM Tscalar LIMIT 3 WHERE id > 2", // LIMIT must trail
	}
	for _, q := range bad {
		if _, err := Run(db, q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}
