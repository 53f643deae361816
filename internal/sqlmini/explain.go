package sqlmini

import (
	"fmt"
	"strings"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// EXPLAIN and EXPLAIN ANALYZE.
//
// EXPLAIN compiles the statement through the real planner — sargable
// analysis and the parallel-aggregate decision both run — and renders
// the plan tree the executor would use, without opening the pipeline.
// EXPLAIN ANALYZE executes the statement with every operator wrapped in
// an analyze shim that counts rows and batches, accumulates wall time,
// and attributes buffer-pool page and blob-chunk reads to its subtree by
// sampling the database's live counters around each child call. Metrics
// are inclusive of children (the root's totals equal the whole query's
// pool delta); attribution assumes no concurrent query is driving the
// same counters, the usual profiling caveat.

// batchAnalyzeOp instruments one operator. It is transparent:
// open/close forward untouched, nextBatch samples the I/O counters and
// the clock around the child call.
type batchAnalyzeOp struct {
	child  batchOperator
	node   *obs.PlanNode
	sample func() (uint64, uint64)
}

func (a *batchAnalyzeOp) open() error {
	p0, c0 := a.sample()
	start := time.Now()
	err := a.child.open()
	a.node.Time += time.Since(start)
	p1, c1 := a.sample()
	a.node.Pages += p1 - p0
	a.node.Chunks += c1 - c0
	return err
}

func (a *batchAnalyzeOp) nextBatch(b *rowBatch) (int, error) {
	p0, c0 := a.sample()
	start := time.Now()
	n, err := a.child.nextBatch(b)
	a.node.Time += time.Since(start)
	p1, c1 := a.sample()
	a.node.Pages += p1 - p0
	a.node.Chunks += c1 - c0
	if n > 0 {
		a.node.Rows += int64(n)
		a.node.Batches++
	}
	return n, err
}

func (a *batchAnalyzeOp) close() error { return a.child.close() }

// Explain compiles stmt against db and returns the plan tree the
// executor would run, without executing it. The snapshot the planner
// consults (row counts steer the parallel-aggregate decision) is
// released before returning unless the caller provided one.
func Explain(db *engine.DB, stmt *SelectStmt, opts ExecOptions) (*obs.PlanNode, error) {
	opts.Trace = nil
	opts.SlowLog = nil
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	snap := opts.Snapshot
	if snap == nil {
		snap = db.Snapshot()
		defer snap.Release()
	}
	// The operators are constructed but never opened: no cursors, no
	// pins, nothing to close.
	pl, err := buildPipeline(db, tbl, stmt, snap, opts, newPlanState(db, opts, true))
	if err != nil {
		return nil, err
	}
	return pl.plan, nil
}

// explainAnalyze executes stmt with per-operator instrumentation,
// discards the result rows, and returns the completed trace: annotated
// plan, wall time, registry deltas.
func explainAnalyze(db *engine.DB, stmt *SelectStmt, opts ExecOptions) (*obs.QueryTrace, error) {
	trace := opts.Trace
	if trace == nil {
		trace = &obs.QueryTrace{}
		opts.Trace = trace
	}
	rows, err := streamWith(db, stmt, opts)
	if err != nil {
		return nil, err
	}
	for rows.Next() {
	}
	drainErr := rows.Err()
	if err := rows.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return nil, drainErr
	}
	return trace, nil
}

// execExplain runs an EXPLAIN [ANALYZE] statement, returning the
// rendered plan in ExecResult.Plan.
func execExplain(db *engine.DB, st *ExplainStmt, opts ExecOptions) (*ExecResult, error) {
	if !st.Analyze {
		plan, err := Explain(db, st.Stmt, opts)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Plan: plan.Render()}, nil
	}
	trace, err := explainAnalyze(db, st.Stmt, opts)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Plan: trace.Plan.Render() + "\n" + analyzeSummary(trace)}, nil
}

// analyzeSummary renders the trailer lines under an EXPLAIN ANALYZE
// tree: total time plus the registry deltas the query caused.
func analyzeSummary(t *obs.QueryTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Execution time: %s\n", t.Duration.Round(time.Microsecond))
	fmt.Fprintf(&b, "Pages read: %d (physical %d)\n",
		t.Delta.Get("pages.logical_reads"), t.Delta.Get("pages.physical_reads"))
	fmt.Fprintf(&b, "Blob chunk reads: %d\n", t.Delta.Get("blob.chunk_reads"))
	fmt.Fprintf(&b, "WAL records: %d", t.Delta.Get("wal.records"))
	return b.String()
}

// selectString reconstructs the statement text for traces; callers that
// parsed from source never kept the original string. The text parses
// back to the same statement, less the WITH (NOLOCK) hint.
func selectString(stmt *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if stmt.Top > 0 {
		fmt.Fprintf(&b, "TOP %d ", stmt.Top)
	}
	for i, it := range stmt.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(exprText(it.Expr))
		if it.Alias != "" {
			b.WriteString(" AS ")
			aliasString(&b, it.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(stmt.Table)
	if stmt.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(exprText(stmt.Where))
	}
	return b.String()
}

// aliasString renders a column alias: bare when it lexes as one
// identifier, else as the string literal it was written as.
func aliasString(b *strings.Builder, alias string) {
	l := lexer{src: alias}
	if t, err := l.next(); err == nil && t.kind == tokIdent && t.text == alias {
		b.WriteString(alias)
		return
	}
	(&stringLit{S: alias}).exprString(b)
}
