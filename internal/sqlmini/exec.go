package sqlmini

import (
	"context"
	"fmt"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]engine.Value
}

// Scalar returns the single value of a one-row one-column result.
func (r *Result) Scalar() (engine.Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return engine.Null, fmt.Errorf("sql: result is %dx%d, not scalar", len(r.Rows), len(r.Columns))
	}
	return r.Rows[0][0], nil
}

// Run parses, plans and executes a SELECT against db, materializing the
// full result. It is a thin wrapper over the streaming pipeline; use
// Query to consume rows incrementally.
func Run(db *engine.DB, query string) (*Result, error) {
	return RunWith(db, query, ExecOptions{})
}

// RunWith is Run with explicit execution options.
func RunWith(db *engine.DB, query string, opts ExecOptions) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecWith(db, stmt, opts)
}

// ExecWith plans and executes a parsed statement with explicit execution
// options, materializing the result.
func ExecWith(db *engine.DB, stmt *SelectStmt, opts ExecOptions) (res *Result, err error) {
	rows, err := streamWith(db, stmt, opts)
	if err != nil {
		return nil, err
	}
	// Close releases the pipeline's page pins; a failure there is a real
	// engine error and must not be swallowed just because the drain
	// succeeded.
	defer func() {
		if cerr := rows.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	res = &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query parses and executes a SELECT, returning a streaming row cursor.
// The caller must Close it (early termination releases pinned pages).
func Query(db *engine.DB, query string) (*Rows, error) {
	return queryWith(db, query, ExecOptions{})
}

// queryWith is Query with explicit execution options.
func queryWith(db *engine.DB, query string, opts ExecOptions) (*Rows, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return streamWith(db, stmt, opts)
}

// streamWith plans a parsed statement and opens the operator pipeline,
// returning a streaming row cursor over it. The whole pipeline — every
// scan, every parallel worker, every MAX-column deref — reads through
// one snapshot, so the query observes a single commit no matter how
// many writers land while it streams (and no writer ever waits for it).
// The snapshot comes from ExecOptions.Snapshot when set; otherwise one
// is acquired here, owned by the Rows, and released by Rows.Close.
func streamWith(db *engine.DB, stmt *SelectStmt, opts ExecOptions) (*Rows, error) {
	tbl, err := db.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	snap := opts.Snapshot
	owned := snap == nil
	if owned {
		snap = db.Snapshot()
	}
	fail := func(err error) (*Rows, error) {
		if owned {
			snap.Release()
		}
		return nil, err
	}
	pl, err := buildPipeline(db, tbl, stmt, snap, opts, newPlanState(db, opts, false))
	if err != nil {
		return fail(err)
	}
	r := &Rows{
		columns:   pl.columns,
		root:      pl.root,
		qctx:      opts.Ctx,
		batchSize: pl.batchRows,
		plan:      pl.plan,
	}
	// Every query feeds the shared latency histogram; the heavier trace
	// state (registry snapshot for deltas, slow-log plumbing) is set up
	// only when this query is instrumented.
	r.lat = db.Metrics().Histogram("sql.query_latency")
	if opts.instrumented() {
		r.reg = db.Metrics()
		r.trace = opts.Trace
		if r.trace == nil {
			r.trace = &obs.QueryTrace{}
		}
		if r.trace.SQL == "" {
			r.trace.SQL = selectString(stmt)
		}
		r.slowLog = opts.SlowLog
		// Captured before open: the B+tree descent and every page the
		// pipeline reads land in the delta, so the root plan node's
		// inclusive page count matches it.
		r.before = r.reg.Snapshot()
		r.trace.Start = time.Now()
	}
	r.started = time.Now()
	if err := pl.root.open(); err != nil {
		pl.root.close()
		return fail(err)
	}
	if owned {
		r.snap = snap
	}
	return r, nil
}

// Rows streams query results one row at a time:
//
//	rows, err := sqlmini.Query(db, "SELECT TOP 5 id, v1 FROM t")
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row()
//	}
//	err = rows.Err()
//
// Rows are materialized as they are yielded: a slice returned by Row
// remains valid after further Next calls and after Close.
type Rows struct {
	columns []string
	root    batchOperator
	qctx    context.Context
	snap    *engine.Snapshot // released on Close when the query owns it

	// The pipeline's one rowBatch: Rows passes it down the tree on every
	// refill and yields the projected rows in batch.out one at a time.
	batch     rowBatch
	batchSize int
	i, n      int  // next row to yield / rows in the current batch
	done      bool // the pipeline reported end of stream

	cur      []engine.Value
	err      error
	closed   bool
	closeErr error

	// Observability: the shared latency histogram and, for instrumented
	// queries only, the plan tree, the trace to finalize on Close and the
	// registry state to diff against.
	plan    *obs.PlanNode
	lat     *obs.Histogram
	started time.Time
	reg     *obs.Registry
	trace   *obs.QueryTrace
	before  obs.Snapshot
	slowLog *obs.SlowLog
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.columns }

// Next advances to the next row, returning false at the end of the
// result set or on error (check Err).
func (r *Rows) Next() bool {
	if r.err != nil || r.closed {
		return false
	}
	for r.i >= r.n {
		if r.done {
			return false
		}
		if r.err = pollCancel(r.qctx); r.err != nil {
			return false
		}
		r.batch.reset(r.batchSize)
		n, err := r.root.nextBatch(&r.batch)
		if err != nil {
			r.err = err
			return false
		}
		if n == 0 {
			r.done = true
			return false
		}
		r.i, r.n = 0, n
	}
	r.cur = r.batch.row(r.i)
	r.i++
	return true
}

// Row returns the current row. The slice is freshly materialized per row
// and safe to retain.
func (r *Rows) Row() []engine.Value { return r.cur }

// Err returns the first error encountered while streaming.
func (r *Rows) Err() error { return r.err }

// Close tears down the pipeline, releasing the scans' pinned pages and
// the query's snapshot. It is idempotent: repeated calls return the
// first close's error without touching the (already released) pipeline
// again, and Next after Close always reports false.
func (r *Rows) Close() error {
	if r.closed {
		return r.closeErr
	}
	r.closed = true
	r.closeErr = r.root.close()
	if r.snap != nil {
		r.snap.Release()
	}
	r.finalize()
	return r.closeErr
}

// finalize records the query's latency and, for instrumented queries,
// completes the trace (duration, annotated plan, registry deltas) and
// emits the slow-query log entry when the threshold was crossed.
func (r *Rows) finalize() {
	d := time.Since(r.started)
	if r.lat != nil {
		r.lat.Observe(d)
	}
	if r.trace == nil {
		return
	}
	r.trace.Duration = d
	r.trace.Plan = r.plan
	r.trace.Delta = r.reg.Snapshot().Delta(r.before)
	if r.slowLog != nil {
		r.slowLog.Log(r.trace)
	}
}

// ---- aggregate accumulators -------------------------------------------

type accumulator struct {
	kind  aggKind
	arg   compiled  // nil for COUNT(*)
	wide  []float64 // a BIGINT argument batch, widened
	count int64
	sum   float64
	min   float64
	max   float64
	any   bool
}

// addBatch folds rows [0, n) of a batch into the accumulator, evaluating
// the argument expression once over the whole batch. A uniform FLOAT or
// BIGINT vector is folded straight off its (widened) slice.
func (a *accumulator) addBatch(b *rowBatch, n int) error {
	if a.arg == nil { // COUNT(*)
		a.count += int64(n)
		return nil
	}
	vals, err := a.arg.evalBatch(b, n)
	if err != nil {
		return err
	}
	if vals.Uniform() && !vals.Const && (vals.Kind == engine.ColFloat64 || vals.Kind == engine.ColInt64) {
		for i, f := range widen(vals, n, &a.wide)[:n] {
			if !vals.IsNull(i) { // SQL aggregates skip NULLs
				a.addFloat(f)
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		v := vals.Value(i)
		if v.IsNull() {
			continue
		}
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		a.addFloat(f)
	}
	return nil
}

// addFloat folds one non-NULL input. A NaN makes MIN and MAX NaN wherever
// in the scan it arrives, as it does SUM and AVG: every ordered comparison
// with NaN is false, so the f != f arm lets a NaN in and nothing replaces
// it afterwards — the result cannot depend on scan order or on how a
// parallel plan partitions the rows.
func (a *accumulator) addFloat(f float64) {
	a.count++
	a.sum += f
	if !a.any || f < a.min || f != f {
		a.min = f
	}
	if !a.any || f > a.max || f != f {
		a.max = f
	}
	a.any = true
}

// merge folds another accumulator's partial state into a. The parallel
// aggregate scan merges per-worker partials in partition order.
func (a *accumulator) merge(b *accumulator) {
	a.count += b.count
	a.sum += b.sum
	if b.any {
		if !a.any || b.min < a.min || b.min != b.min {
			a.min = b.min
		}
		if !a.any || b.max > a.max || b.max != b.max {
			a.max = b.max
		}
		a.any = true
	}
}

func (a *accumulator) result() engine.Value {
	switch a.kind {
	case aggCount:
		return engine.IntValue(a.count)
	case aggSum:
		if !a.any {
			return engine.Null
		}
		return engine.FloatValue(a.sum)
	case aggAvg:
		if !a.any {
			return engine.Null
		}
		return engine.FloatValue(a.sum / float64(a.count))
	case aggMin:
		if !a.any {
			return engine.Null
		}
		return engine.FloatValue(a.min)
	case aggMax:
		if !a.any {
			return engine.Null
		}
		return engine.FloatValue(a.max)
	}
	return engine.Null
}
