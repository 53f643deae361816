package sqlmini

import (
	"context"
	"fmt"
	"math"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// Scatter-gather execution over a partitioned table: the table's rows
// live in several member databases, each covering a contiguous
// clustered-key range. One SELECT fans out as per-partition snapshot
// scans on worker goroutines and the partials gather back into a single
// result:
//
//   - aggregate queries merge per-partition partial accumulators — the
//     same merge the parallel aggregate scan uses within one table, so
//     AVG stays exact (sums and counts merge, not averages);
//   - plain selects concatenate rows in partition order, which IS
//     clustered-key order, with TOP pushed into every partition and
//     re-applied to the gathered whole.
//
// Before anything runs, the statement's sargable WHERE bounds prune
// partitions whose key range cannot intersect — the scatter analogue of
// the B+tree descent the single-table scan gets from pushdown.

// Partition couples one member database of a partitioned table with the
// inclusive clustered-key range it covers.
type Partition struct {
	DB     *engine.DB
	Lo, Hi int64
}

// ScatterStats reports how much of the table a scatter execution
// actually touched.
//
// Stats are assembled merge-after-join: each worker goroutine writes
// only its own result slot and the sums are taken after fanOut's join,
// so nothing in a ScatterStats is ever written concurrently.
// Concurrent scatter queries each get an independent value and may
// read it freely.
type ScatterStats struct {
	Partitions int // members of the partitioned table
	Scanned    int // partitions that survived key-range pruning

	// PartRows holds the rows gathered from each live (unpruned)
	// partition, in partition order. Filled by plain selects and by
	// EXPLAIN ANALYZE; aggregate queries gather partial accumulators,
	// not rows, and leave it nil.
	PartRows []int64
	// RowsGathered is the sum of PartRows before TOP is re-applied to
	// the gathered whole.
	RowsGathered int64
}

// scatterPlan is the shared front half of scatter execution: schema
// checks, sargable bounds extraction and partition pruning.
type scatterPlan struct {
	tbl0   *engine.Table
	schema *engine.Schema
	bounds keyBounds
	live   []Partition
	stats  ScatterStats
}

// planScatter prunes partitions whose key range cannot intersect the
// statement's sargable WHERE bounds: they are never opened, never
// snapshotted, never scanned.
func planScatter(parts []Partition, stmt *SelectStmt) (scatterPlan, error) {
	sp := scatterPlan{stats: ScatterStats{Partitions: len(parts)}}
	if len(parts) == 0 {
		return sp, fmt.Errorf("sql: scatter over zero partitions")
	}
	tbl0, err := parts[0].DB.Table(stmt.Table)
	if err != nil {
		return sp, err
	}
	sp.tbl0 = tbl0
	sp.schema = tbl0.Schema()
	sp.bounds = unboundedKeys()
	if stmt.Where != nil && !hasAggregate(stmt.Where) {
		sp.bounds, _ = extractKeyBounds(stmt.Where, sp.schema)
	}
	if !sp.bounds.empty {
		for _, p := range parts {
			if p.Hi >= sp.bounds.loKey() && p.Lo <= sp.bounds.hiKey() {
				sp.live = append(sp.live, p)
			}
		}
	}
	sp.stats.Scanned = len(sp.live)
	return sp, nil
}

// ScatterRun parses and executes one SELECT across the partitions of a
// table. Every partition holds the same schema under the same table
// name; parts must be ordered by key range.
func ScatterRun(parts []Partition, query string, opts ExecOptions) (*Result, ScatterStats, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, ScatterStats{}, err
	}
	return ScatterExec(parts, stmt, opts)
}

// ScatterExec is ScatterRun on a parsed statement.
func ScatterExec(parts []Partition, stmt *SelectStmt, opts ExecOptions) (*Result, ScatterStats, error) {
	sp, err := planScatter(parts, stmt)
	if err != nil {
		return nil, sp.stats, err
	}
	aggregate := false
	for _, it := range stmt.Items {
		aggregate = aggregate || hasAggregate(it.Expr)
	}
	if aggregate {
		res, err := scatterAggregate(sp.live, parts[0].DB, sp.tbl0, stmt, sp.schema, opts)
		return res, sp.stats, err
	}
	res, partRows, err := scatterSelect(sp.live, stmt, opts)
	if err != nil {
		return nil, sp.stats, err
	}
	sp.stats.PartRows = partRows
	for _, n := range partRows {
		sp.stats.RowsGathered += n
	}
	return res, sp.stats, nil
}

// ScatterExplain renders the scatter-gather plan for one EXPLAIN
// [ANALYZE] SELECT across the partitions: a Gather root annotated with
// the pruning outcome, one Partition subtree per live member. Plain
// EXPLAIN compiles each member's plan without executing anything;
// ANALYZE runs the statement per member on worker goroutines — every
// trace lands in its own slot and the Gather totals are summed after
// the join (merge-after-join, like the execution paths).
func ScatterExplain(parts []Partition, stmt *ExplainStmt, opts ExecOptions) (string, ScatterStats, error) {
	sp, err := planScatter(parts, stmt.Stmt)
	if err != nil {
		return "", sp.stats, err
	}
	root := &obs.PlanNode{Name: "Gather", Detail: "on " + stmt.Stmt.Table}
	root.AddExtra("partitions", "%d", sp.stats.Partitions)
	root.AddExtra("scanned", "%d", sp.stats.Scanned)
	root.AddExtra("pruned", "%d", sp.stats.Partitions-sp.stats.Scanned)

	children := make([]*obs.PlanNode, len(sp.live))
	if !stmt.Analyze {
		for i, p := range sp.live {
			child, err := Explain(p.DB, stmt.Stmt, opts)
			if err != nil {
				return "", sp.stats, err
			}
			children[i] = partitionPlanNode(i, p, child)
		}
		root.Children = children
		return root.Render(), sp.stats, nil
	}

	traces := make([]*obs.QueryTrace, len(sp.live))
	start := time.Now()
	err = fanOut(opts.Ctx, len(sp.live), opts.workers(), func(ctx context.Context, i int) error {
		popts := opts
		popts.Ctx = ctx
		popts.Snapshot = nil // every partition reads its own snapshot
		popts.Trace = nil    // per-member trace, not the caller's
		var err error
		traces[i], err = explainAnalyze(sp.live[i].DB, stmt.Stmt, popts)
		return err
	})
	root.Analyzed = true
	root.Time = time.Since(start)
	if err != nil {
		return "", sp.stats, err
	}
	sp.stats.PartRows = make([]int64, len(sp.live))
	for i, tr := range traces {
		children[i] = partitionPlanNode(i, sp.live[i], tr.Plan)
		root.Rows += tr.Plan.Rows
		root.Batches += tr.Plan.Batches
		root.Pages += tr.Plan.Pages
		root.Chunks += tr.Plan.Chunks
		sp.stats.PartRows[i] = tr.Plan.Rows
		sp.stats.RowsGathered += tr.Plan.Rows
	}
	root.Children = children
	return root.Render(), sp.stats, nil
}

// partitionPlanNode labels one member's subtree with its key range; the
// annotations mirror the member plan's root (metrics are inclusive).
func partitionPlanNode(i int, p Partition, child *obs.PlanNode) *obs.PlanNode {
	n := &obs.PlanNode{
		Name:     "Partition",
		Detail:   fmt.Sprintf("%d keys [%s, %s]", i, scatterKey(p.Lo), scatterKey(p.Hi)),
		Children: []*obs.PlanNode{child},
	}
	if child.Analyzed {
		n.Analyzed = true
		n.Rows = child.Rows
		n.Batches = child.Batches
		n.Time = child.Time
		n.Pages = child.Pages
		n.Chunks = child.Chunks
	}
	return n
}

func scatterKey(k int64) string {
	switch k {
	case math.MinInt64:
		return "-inf"
	case math.MaxInt64:
		return "+inf"
	}
	return fmt.Sprint(k)
}

// scatterAggregate fans the scan+filter+accumulate stage out per
// partition and merges the partial accumulators in partition order,
// then evaluates the projection once over the merged aggregates.
func scatterAggregate(live []Partition, db0 *engine.DB, tbl0 *engine.Table, stmt *SelectStmt, schema *engine.Schema, opts ExecOptions) (*Result, error) {
	// The master plan owns the merge-target accumulators and the final
	// projection. Its aggregate arguments never run (partition plans
	// feed the data), so a nil snapshot is fine.
	bounds := unboundedKeys()
	residual := stmt.Where
	if stmt.Where != nil {
		bounds, residual = extractKeyBounds(stmt.Where, schema)
	}
	master, err := compileStmt(db0, tbl0, stmt, residual, nil)
	if err != nil {
		return nil, err
	}

	partials := make([][]*accumulator, len(live))
	err = fanOut(opts.Ctx, len(live), opts.workers(), func(ctx context.Context, i int) error {
		db := live[i].DB
		tbl, err := db.Table(stmt.Table)
		if err != nil {
			return err
		}
		snap := db.Snapshot() // every partition reads its own snapshot
		defer snap.Release()
		popts := opts
		popts.Ctx = ctx
		partials[i], err = partitionPartial(db, tbl, snap, stmt, residual, bounds, popts)
		return err
	})
	if err != nil {
		return nil, err
	}
	mergePartials(master.accs, partials)
	// The projection runs once, over the one-row batch of merged results.
	b := &rowBatch{}
	b.setAggregates(master.accs)
	out := make([]engine.Value, len(master.items))
	for i, item := range master.items {
		v, err := item.evalBatch(b, 1)
		if err != nil {
			return nil, err
		}
		out[i] = v.Value(0)
	}
	return &Result{Columns: master.columns, Rows: [][]engine.Value{out}}, nil
}

// partitionPartial runs scan → filter → accumulate over the keys of tbl
// within bounds, reading through snap, and returns the partial
// accumulators. A scatter member runs it over its own database and
// snapshot; a parallel aggregate worker over its key span of the one table,
// sharing the query's snapshot. Either way it compiles its own copy of the
// statement, so concurrent callers share no expression state.
func partitionPartial(db *engine.DB, tbl *engine.Table, snap *engine.Snapshot, stmt *SelectStmt,
	residual Expr, bounds keyBounds, opts ExecOptions) ([]*accumulator, error) {
	cs, err := compileStmt(db, tbl, stmt, residual, snap)
	if err != nil {
		return nil, err
	}
	if err := drainStack(tbl, snap, bounds, residual, &cs, opts, nil); err != nil {
		return nil, err
	}
	return cs.accs, nil
}

// scatterSelect runs the full statement per partition on worker
// goroutines — TOP included, a prefix per partition is a valid prefix
// of the whole — and concatenates the materialized results in partition
// order (clustered-key order), re-applying TOP to the gathered rows.
// The second return is the per-partition gathered row count, in
// partition order, assembled after the join.
func scatterSelect(live []Partition, stmt *SelectStmt, opts ExecOptions) (*Result, []int64, error) {
	results := make([]*Result, len(live))
	err := fanOut(opts.Ctx, len(live), opts.workers(), func(ctx context.Context, i int) error {
		popts := opts
		popts.Ctx = ctx
		popts.Snapshot = nil // every partition reads its own snapshot
		popts.Trace = nil    // a shared trace cannot hold N partition plans
		var err error
		results[i], err = ExecWith(live[i].DB, stmt, popts)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	partRows := make([]int64, len(results))
	out := &Result{}
	for i, r := range results {
		partRows[i] = int64(len(r.Rows))
		if out.Columns == nil {
			out.Columns = r.Columns
		}
		out.Rows = append(out.Rows, r.Rows...)
	}
	if stmt.Top > 0 && int64(len(out.Rows)) > stmt.Top {
		out.Rows = out.Rows[:stmt.Top]
	}
	if out.Columns == nil {
		// Every partition was pruned: compile nothing, return the empty
		// shape from any member's schema via a zero-partition parse of
		// the projection names.
		out.Columns = columnNames(stmt)
	}
	return out, partRows, nil
}

// columnNames derives result column names without executing (the
// all-pruned case).
func columnNames(stmt *SelectStmt) []string {
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Alias != "" {
			names[i] = it.Alias
			continue
		}
		name := exprText(it.Expr)
		if len(name) > 40 {
			name = fmt.Sprintf("col%d", i+1)
		}
		names[i] = name
	}
	return names
}
