package sqlmini

import (
	"fmt"
	"math"
	"testing"

	"sqlarray/internal/engine"
)

// scatterParts builds a 4-way range-partitioned table "T"(id, x): keys
// 0..99 in member 0, 100..199 in member 1, and so on, x = id/2.
func scatterParts(t *testing.T) []Partition {
	t.Helper()
	parts := make([]Partition, 4)
	for p := 0; p < 4; p++ {
		db := memDB(t)
		s, err := engine.NewSchema(
			engine.Column{Name: "id", Type: engine.ColInt64},
			engine.Column{Name: "x", Type: engine.ColFloat64},
		)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("T", s)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]engine.Value
		for i := int64(0); i < 100; i++ {
			id := int64(p)*100 + i
			rows = append(rows, []engine.Value{
				engine.IntValue(id), engine.FloatValue(float64(id) / 2),
			})
		}
		if _, err := tbl.BulkLoad(engine.NewValuesSource(rows), engine.BulkOptions{}); err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(p)*100, int64(p)*100+99
		if p == 0 {
			lo = math.MinInt64
		}
		if p == 3 {
			hi = math.MaxInt64
		}
		parts[p] = Partition{DB: db, Lo: lo, Hi: hi}
	}
	return parts
}

func scatterScalar(t *testing.T, parts []Partition, q string) (float64, ScatterStats) {
	t.Helper()
	res, stats, err := ScatterRun(parts, q, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("ScatterRun(%q): %v", q, err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatalf("Scalar(%q): %v", q, err)
	}
	f, err := v.AsFloat()
	if err != nil {
		t.Fatalf("AsFloat(%q): %v", q, err)
	}
	return f, stats
}

func TestScatterAggregates(t *testing.T) {
	parts := scatterParts(t)
	if got, st := scatterScalar(t, parts, "SELECT COUNT(*) FROM T"); got != 400 || st.Scanned != 4 {
		t.Errorf("COUNT(*) = %g over %d partitions, want 400 over 4", got, st.Scanned)
	}
	// SUM(id) over 0..399.
	if got, _ := scatterScalar(t, parts, "SELECT SUM(id) FROM T"); got != 399*400/2 {
		t.Errorf("SUM(id) = %g, want %d", got, 399*400/2)
	}
	// AVG must merge sums and counts, not average the averages: restrict
	// to an asymmetric key range so per-partition row counts differ
	// (100+100+51 rows) and a mean-of-means would be wrong.
	got, st := scatterScalar(t, parts, "SELECT AVG(x) FROM T WHERE id <= 250")
	want := float64(250*251/2) / 2 / 251
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AVG(x) WHERE id <= 250 = %g, want %g", got, want)
	}
	if st.Scanned != 3 {
		t.Errorf("id <= 250 scanned %d partitions, want 3 (member 3 pruned)", st.Scanned)
	}
	if got, _ := scatterScalar(t, parts, "SELECT MAX(id) FROM T WHERE id < 130"); got != 129 {
		t.Errorf("MAX(id) WHERE id < 130 = %g, want 129", got)
	}
	// MIN over a range no partition covers: zero rows, NULL result.
	res, st, err := ScatterRun(parts, "SELECT MIN(x) FROM T WHERE id > 1000 AND id < 900", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 0 {
		t.Errorf("contradictory bounds scanned %d partitions, want 0", st.Scanned)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Errorf("MIN over empty range = %v, want NULL", v)
	}
}

func TestScatterPruning(t *testing.T) {
	parts := scatterParts(t)
	// A point lookup touches exactly one member.
	res, st, err := ScatterRun(parts, "SELECT x FROM T WHERE id = 217", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 4 || st.Scanned != 1 {
		t.Fatalf("point lookup scanned %d/%d partitions, want 1/4", st.Scanned, st.Partitions)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 108.5 {
		t.Fatalf("rows = %v, want one row x=108.5", res.Rows)
	}
	// A range straddling one split touches two members.
	_, st, err = ScatterRun(parts, "SELECT id FROM T WHERE id >= 190 AND id <= 210", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 2 {
		t.Errorf("straddling range scanned %d partitions, want 2", st.Scanned)
	}
}

func TestScatterSelectOrderAndTop(t *testing.T) {
	parts := scatterParts(t)
	// Rows gather in partition order, which is clustered-key order.
	res, _, err := ScatterRun(parts, "SELECT id FROM T WHERE x >= 40", ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 320 {
		t.Fatalf("rows = %d, want 320", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(80+i) {
			t.Fatalf("row %d: id = %d, want %d (global key order)", i, row[0].I, 80+i)
		}
	}
	// TOP pushes into every partition and caps the gathered whole.
	res, _, err = ScatterRun(parts, "SELECT TOP 150 id FROM T", ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 150 {
		t.Fatalf("TOP 150 returned %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(i) {
			t.Fatalf("TOP row %d: id = %d, want %d", i, row[0].I, i)
		}
	}
	// All partitions pruned (contradictory sargable bounds): empty
	// result, named columns. An open-ended range like id > 5000 still
	// scans the last member — its range runs to MaxInt64.
	res, st, err := ScatterRun(parts, "SELECT id AS k FROM T WHERE id > 10 AND id < 5", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 0 || len(res.Rows) != 0 {
		t.Fatalf("pruned-all query: scanned %d, rows %d", st.Scanned, len(res.Rows))
	}
	if len(res.Columns) != 1 || res.Columns[0] != "k" {
		t.Fatalf("pruned-all columns = %v, want [k]", res.Columns)
	}
}

// TestScatterStatsMatchAnalyze: a scatter run reports the rows every
// live partition gathered, before TOP is re-applied to the whole — the
// same PartRows and RowsGathered EXPLAIN ANALYZE reports for the
// statement, TOP or not.
func TestScatterStatsMatchAnalyze(t *testing.T) {
	parts := scatterParts(t)
	for _, q := range []string{
		"SELECT TOP 5 id FROM T",
		"SELECT TOP 150 id FROM T WHERE id >= 50",
		"SELECT TOP 30 id FROM T WHERE x >= 40",
		"SELECT id FROM T WHERE id >= 150",
	} {
		stmt := mustParse(t, q)
		res, run, err := ScatterExec(parts, stmt, ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		_, analyzed, err := ScatterExplain(parts, &ExplainStmt{Analyze: true, Stmt: stmt}, ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %s: %v", q, err)
		}
		if fmt.Sprint(run.PartRows) != fmt.Sprint(analyzed.PartRows) || run.RowsGathered != analyzed.RowsGathered {
			t.Errorf("%s: run PartRows %v / RowsGathered %d, ANALYZE %v / %d",
				q, run.PartRows, run.RowsGathered, analyzed.PartRows, analyzed.RowsGathered)
		}
		if stmt.Top > 0 && int64(len(res.Rows)) > stmt.Top {
			t.Errorf("%s: %d rows past TOP %d", q, len(res.Rows), stmt.Top)
		}
	}
}
