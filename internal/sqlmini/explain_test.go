package sqlmini

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// TestExplainGoldenPlans pins the rendered plan tree for each access
// path the sargable analysis can choose.
func TestExplainGoldenPlans(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		q    string
		want string
	}{
		{
			"EXPLAIN SELECT id, v1 FROM Tscalar WHERE id = 42",
			"Project [id, v1]\n" +
				"-> Scan on Tscalar (point lookup key=42)",
		},
		{
			"EXPLAIN SELECT id, v1 FROM Tscalar WHERE id >= 10 AND id <= 20 AND v1 > 1",
			"Project [id, v1]\n" +
				"-> Filter (v1 > 1)\n" +
				"   -> Scan on Tscalar (range scan keys [10, 20])",
		},
		{
			"EXPLAIN SELECT TOP 5 id FROM Tscalar",
			"Project [id]\n" +
				"-> Limit TOP 5\n" +
				"   -> Scan on Tscalar (full scan)",
		},
		{
			"EXPLAIN SELECT AVG(v1) FROM Tscalar WHERE id < 0 AND id > 10",
			"Project [AVG(v1)]\n" +
				"-> Aggregate\n" +
				"   -> Scan on Tscalar (empty range)",
		},
	}
	for _, c := range cases {
		res, err := Execute(db, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if res.Plan != c.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.q, res.Plan, c.want)
		}
		if res.Result != nil || res.RowsAffected != 0 {
			t.Errorf("%s: EXPLAIN must not execute (result=%v rows=%d)", c.q, res.Result, res.RowsAffected)
		}
	}
}

// TestExplainScatterGolden pins the Gather tree with partition pruning:
// id <= 250 prunes the fourth member of the 4-way split.
func TestExplainScatterGolden(t *testing.T) {
	parts := scatterParts(t)
	out, stats, err := ScatterExplain(parts,
		&ExplainStmt{Stmt: mustParse(t, "SELECT id, x FROM T WHERE id <= 250")},
		ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := "Gather on T\n" +
		"   (partitions=4 scanned=3 pruned=1)\n" +
		"-> Partition 0 keys [-inf, 99]\n" +
		"   -> Project [id, x]\n" +
		"      -> Scan on T (range scan keys [-inf, 250])\n" +
		"-> Partition 1 keys [100, 199]\n" +
		"   -> Project [id, x]\n" +
		"      -> Scan on T (range scan keys [-inf, 250])\n" +
		"-> Partition 2 keys [200, 299]\n" +
		"   -> Project [id, x]\n" +
		"      -> Scan on T (range scan keys [-inf, 250])"
	if out != want {
		t.Errorf("scatter plan:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if stats.Partitions != 4 || stats.Scanned != 3 {
		t.Errorf("stats = %+v, want 4 partitions 3 scanned", stats)
	}
}

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// bigDB bulk-loads a (id, v) table large enough to span many leaf
// pages and returns the db plus the leaf page count of the load.
func bigDB(t *testing.T, rows int64) (*engine.DB, int) {
	t.Helper()
	db := memDB(t)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("big", s)
	if err != nil {
		t.Fatal(err)
	}
	var vals [][]engine.Value
	for i := int64(0); i < rows; i++ {
		vals = append(vals, []engine.Value{engine.IntValue(i), engine.FloatValue(float64(i))})
	}
	stats, err := tbl.BulkLoad(engine.NewValuesSource(vals), engine.BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return db, stats.LeafPages
}

// TestExplainAnalyzePointVsFullScan is the paper's headline asymmetry:
// a clustered point lookup touches a handful of pages (root-to-leaf
// descent) while the full scan touches every leaf.
func TestExplainAnalyzePointVsFullScan(t *testing.T) {
	db, leafPages := bigDB(t, 60000)
	if leafPages < 100 {
		t.Fatalf("load too small to be interesting: %d leaf pages", leafPages)
	}

	pagesOf := func(q string) uint64 {
		t.Helper()
		tr, err := explainAnalyze(db, mustParse(t, q), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return tr.Delta.Get("pages.logical_reads")
	}

	point := pagesOf("SELECT id, v FROM big WHERE id = 31337")
	full := pagesOf("SELECT COUNT(*) FROM big")
	if point > 8 {
		t.Errorf("point lookup read %d pages, want a handful (<= 8)", point)
	}
	if full < uint64(leafPages) {
		t.Errorf("full scan read %d pages, want >= %d leaf pages", full, leafPages)
	}
	t.Logf("logical reads: point lookup %d vs full scan %d (%d leaf pages)", point, full, leafPages)
}

// TestExplainAnalyzeInvariants checks the structural promises the
// instrumentation makes: every node annotated, metrics inclusive of
// children, the root's page count equal to the query's registry delta,
// and no pinned frames after close.
func TestExplainAnalyzeInvariants(t *testing.T) {
	db, _ := bigDB(t, 20000)
	for _, q := range []string{
		"SELECT id, v FROM big WHERE id >= 1000 AND id <= 5000 AND v > 1500",
		"SELECT TOP 7 id FROM big WHERE id > 100",
		"SELECT COUNT(*), AVG(v) FROM big",
	} {
		tr, err := explainAnalyze(db, mustParse(t, q), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		root := tr.Plan
		if root == nil {
			t.Fatalf("%s: no plan", q)
		}
		root.Walk(func(n *obs.PlanNode) {
			if !n.Analyzed {
				t.Errorf("%s: node %q not annotated", q, n.Name)
			}
			for _, c := range n.Children {
				if c.Rows < n.Rows && n.Name != "Aggregate" && n.Name != "Project" {
					// Inclusive convention: a parent only ever narrows
					// (Filter, Limit) or reshapes (Aggregate emits one
					// row from many; Project above an Aggregate too).
					t.Errorf("%s: %q emitted %d rows from child %q's %d", q, n.Name, n.Rows, c.Name, c.Rows)
				}
				if n.Pages < c.Pages || n.Chunks < c.Chunks {
					t.Errorf("%s: %q pages/chunks (%d/%d) below child %q (%d/%d); metrics must be inclusive",
						q, n.Name, n.Pages, n.Chunks, c.Name, c.Pages, c.Chunks)
				}
			}
		})
		if delta := tr.Delta.Get("pages.logical_reads"); root.Pages != delta {
			t.Errorf("%s: root pages %d != registry delta %d", q, root.Pages, delta)
		}
		if tr.Duration <= 0 || tr.SQL == "" {
			t.Errorf("%s: trace not finalized: %+v", q, tr)
		}
	}
	if pinned := db.Metrics().Snapshot().Get("pages.pinned_frames"); pinned != 0 {
		t.Errorf("%d frames still pinned after ANALYZE runs", pinned)
	}
}

// TestExplainAnalyzeScatter runs the instrumented fan-out and checks
// the per-partition gather arithmetic.
func TestExplainAnalyzeScatter(t *testing.T) {
	parts := scatterParts(t)
	out, stats, err := ScatterExplain(parts,
		&ExplainStmt{Analyze: true, Stmt: mustParse(t, "SELECT id FROM T WHERE id >= 150")},
		ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 3 {
		t.Fatalf("scanned %d partitions, want 3 (member 0 pruned): %+v", stats.Scanned, stats)
	}
	wantRows := []int64{50, 100, 100}
	if len(stats.PartRows) != len(wantRows) {
		t.Fatalf("PartRows = %v, want %v", stats.PartRows, wantRows)
	}
	var sum int64
	for i, n := range stats.PartRows {
		if n != wantRows[i] {
			t.Errorf("partition %d gathered %d rows, want %d", i, n, wantRows[i])
		}
		sum += n
	}
	if stats.RowsGathered != sum || sum != 250 {
		t.Errorf("RowsGathered = %d (sum %d), want 250", stats.RowsGathered, sum)
	}
	if !strings.Contains(out, "Gather on T") || !strings.Contains(out, "actual rows=250") {
		t.Errorf("gather root not annotated with total rows:\n%s", out)
	}
	if strings.Count(out, "-> Partition") != 3 {
		t.Errorf("want 3 partition subtrees:\n%s", out)
	}
}

// TestSlowQueryLog drives a query over the threshold and checks the
// structured entry: one JSON line carrying the SQL, the timing, and the
// annotated plan.
func TestSlowQueryLog(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	res, err := executeWith(db, "SELECT id, v1 FROM Tscalar WHERE v1 > 10", ExecOptions{
		SlowLog: obs.NewSlowLog(&buf, time.Nanosecond), // everything is slow
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != 89 {
		t.Fatalf("query returned %d rows, want 89", len(res.Result.Rows))
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one JSON line, got %q", line)
	}
	var e obs.SlowLogEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, line)
	}
	// The trace SQL is reconstructed from the AST (exprText
	// parenthesizes), not the original text.
	if e.SQL != "SELECT id, v1 FROM Tscalar WHERE (v1 > 10)" {
		t.Errorf("logged sql = %q", e.SQL)
	}
	if e.Plan == nil || !e.Plan.Analyzed || e.Plan.Rows != 89 {
		t.Errorf("logged plan missing or unannotated: %+v", e.Plan)
	}
	if e.DurationMS <= 0 || e.Pages == 0 {
		t.Errorf("entry not filled: %+v", e)
	}

	// Under the threshold: nothing is emitted.
	buf.Reset()
	_, err = executeWith(db, "SELECT id FROM Tscalar WHERE id = 1", ExecOptions{
		SlowLog: obs.NewSlowLog(&buf, time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast query logged: %s", buf.String())
	}
}

// TestScatterStatsRace hammers concurrent scatter queries — plain
// selects, aggregates, and instrumented ANALYZE fan-outs — each reading
// its own ScatterStats, under the race detector. Stats are assembled
// merge-after-join; this test is the regression net for that property.
func TestScatterStatsRace(t *testing.T) {
	parts := scatterParts(t)
	queries := []string{
		"SELECT id FROM T WHERE id >= 150",
		"SELECT COUNT(*) FROM T",
		"SELECT SUM(x) FROM T WHERE id <= 250",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := queries[(g+i)%len(queries)]
				_, stats, err := ScatterRun(parts, q, ExecOptions{Parallelism: 4})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
				// Read every stats field; the race detector flags any
				// write that escaped the join barrier.
				total := int64(stats.Partitions + stats.Scanned)
				for _, n := range stats.PartRows {
					total += n
				}
				_ = total + stats.RowsGathered
				if g%3 == 0 {
					_, st, err := ScatterExplain(parts,
						&ExplainStmt{Analyze: true, Stmt: mustParse(t, q)},
						ExecOptions{Parallelism: 2})
					if err != nil {
						errs <- err
						return
					}
					_ = st.RowsGathered
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
