package sqlmini

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// This file lowers a parsed SelectStmt into an operator pipeline:
//
//	SelectStmt --(sargable analysis)--> key range + residual predicate
//	           --(compile)-----------> scan → filter → [aggregate | limit] → project
//
// Key-range pushdown: top-level AND conjuncts of the form
//
//	id >= k, id > k, id <= k, id < k, id = k        (and the flipped forms)
//
// where id is the clustered key column and k a numeric literal are
// removed from the WHERE tree and become the scan's [lo, hi] bounds, so
// point and range queries descend the B+tree instead of scanning it.

// ExecOptions carries a query's execution context (cancellation, read
// snapshot, tracing) and its worker count. The zero value picks
// defaults.
type ExecOptions struct {
	// Ctx, when non-nil, makes the query cancelable: every operator
	// scan/drain loop polls it, so canceling the context aborts a
	// long-running query mid-scan with ctx.Err() and the normal close
	// path still releases every page pin. A nil Ctx costs one branch per
	// poll and never cancels.
	Ctx context.Context
	// Parallelism caps the worker goroutines of a parallel aggregate
	// scan. 0 means runtime.GOMAXPROCS(0); 1 disables parallelism.
	Parallelism int
	// Snapshot, when non-nil, runs the query against this caller-owned
	// read view instead of one acquired at open — several queries can
	// share one consistent view of the database. The caller keeps
	// ownership: Rows.Close does not release it. When nil, every query
	// acquires its own snapshot at open and releases it at Close.
	Snapshot *engine.Snapshot
	// Trace, when non-nil, turns on per-operator instrumentation and is
	// filled in when the query's Rows close: the annotated plan tree,
	// the wall time, and the registry counter deltas the query caused.
	// EXPLAIN ANALYZE is a rendering of this trace. Instrumentation
	// costs two counter samples and a clock read per operator batch;
	// with Trace nil and no slow log the pipeline runs exactly as
	// before.
	Trace *obs.QueryTrace
	// SlowLog, when non-nil, instruments the query like Trace does and
	// hands the trace to the log, which writes it as one structured JSON
	// line if the query's wall time reached the log's threshold
	// (obs.NewSlowLog).
	SlowLog *obs.SlowLog
	// Tuning fixed at its defaults outside this package; its tests set it
	// to force batch boundaries and parallel plans on small tables.

	// parallelThreshold is the minimum table row count before an
	// aggregate scan goes parallel. 0 means the default (8192). Small
	// scans are not worth the goroutine and partition setup.
	parallelThreshold int64
	// batchSize is the row capacity of the chunks the executor moves
	// between operators. 0 means the default (1024).
	batchSize int
}

// instrumented reports whether the pipeline should carry per-operator
// instrumentation.
func (o ExecOptions) instrumented() bool {
	return o.Trace != nil || o.SlowLog != nil
}

const defaultParallelThreshold = 8192

func (o ExecOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o ExecOptions) threshold() int64 {
	if o.parallelThreshold > 0 {
		return o.parallelThreshold
	}
	return defaultParallelThreshold
}

func (o ExecOptions) rowsPerBatch() int {
	if o.batchSize > 0 {
		return o.batchSize
	}
	return defaultBatchSize
}

// keyBounds is the key range extracted from sargable WHERE conjuncts.
// The zero value is the unbounded range.
type keyBounds struct {
	lo, hi       int64
	hasLo, hasHi bool
	empty        bool // provably no rows (contradictory bounds)
}

func unboundedKeys() keyBounds { return keyBounds{} }

func (b keyBounds) loKey() int64 {
	if b.hasLo {
		return b.lo
	}
	return math.MinInt64
}

func (b keyBounds) hiKey() int64 {
	if b.hasHi {
		return b.hi
	}
	return math.MaxInt64
}

// batchRows caps a batch at the number of keys the range can hold: a
// point or narrow range query has no use for a full-size batch. The
// arithmetic is wrap-safe across the full int64 span, as partitionSpans'.
func (b keyBounds) batchRows(max int) int {
	if b.empty {
		return 1
	}
	if span := uint64(b.hiKey()) - uint64(b.loKey()); span < uint64(max) {
		return int(span) + 1
	}
	return max
}

func (b *keyBounds) addLo(k int64) {
	if !b.hasLo || k > b.lo {
		b.lo, b.hasLo = k, true
	}
	b.check()
}

func (b *keyBounds) addHi(k int64) {
	if !b.hasHi || k < b.hi {
		b.hi, b.hasHi = k, true
	}
	b.check()
}

func (b *keyBounds) check() {
	if b.hasLo && b.hasHi && b.lo > b.hi {
		b.empty = true
	}
}

func (b *keyBounds) merge(o keyBounds) {
	if o.hasLo {
		b.addLo(o.lo)
	}
	if o.hasHi {
		b.addHi(o.hi)
	}
	if o.empty {
		b.empty = true
	}
}

// extractKeyBounds splits the WHERE tree into key bounds and the residual
// predicate that still needs per-row evaluation. Only top-level AND
// conjuncts are considered; anything under OR/NOT stays residual.
func extractKeyBounds(e Expr, schema *engine.Schema) (keyBounds, Expr) {
	b := unboundedKeys()
	residual := extractInto(e, schema, &b)
	return b, residual
}

func extractInto(e Expr, schema *engine.Schema, b *keyBounds) Expr {
	bin, ok := e.(*binaryExpr)
	if !ok {
		return e
	}
	if bin.Op == "AND" {
		l := extractInto(bin.L, schema, b)
		r := extractInto(bin.R, schema, b)
		switch {
		case l == nil && r == nil:
			return nil
		case l == nil:
			return r
		case r == nil:
			return l
		}
		if l == bin.L && r == bin.R {
			return e
		}
		return &binaryExpr{Op: "AND", L: l, R: r}
	}
	if kb, ok := sargableBounds(bin, schema); ok {
		b.merge(kb)
		return nil
	}
	return e
}

// sargableBounds recognizes a single comparison between the clustered key
// column and a numeric literal, in either operand order.
func sargableBounds(bin *binaryExpr, schema *engine.Schema) (keyBounds, bool) {
	op := bin.Op
	switch op {
	case "=", "<", "<=", ">", ">=":
	default:
		return keyBounds{}, false
	}
	if isKeyColumn(bin.L, schema) {
		if f, ok := constNumber(bin.R); ok {
			return boundsFor(op, f)
		}
		return keyBounds{}, false
	}
	if isKeyColumn(bin.R, schema) {
		if f, ok := constNumber(bin.L); ok {
			return boundsFor(flipOp(op), f)
		}
	}
	return keyBounds{}, false
}

func isKeyColumn(e Expr, schema *engine.Schema) bool {
	c, ok := e.(*columnRef)
	return ok && schema.ColIndex(c.Name) == schema.Key
}

// constNumber matches a numeric literal, optionally negated.
func constNumber(e Expr) (float64, bool) {
	switch n := e.(type) {
	case *numberLit:
		return litFloat(n), true
	case *unaryExpr:
		if n.Op != "-" {
			return 0, false
		}
		if lit, ok := n.X.(*numberLit); ok {
			return -litFloat(lit), true
		}
	}
	return 0, false
}

func litFloat(n *numberLit) float64 {
	if n.IsInt {
		return float64(n.I)
	}
	return n.F
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // "="
}

// boundsFor converts "key op k" into integer key bounds. k may be
// fractional (keys are BIGINT, so `id > 10.5` means `id >= 11`). Literals
// too large for exact handling are left to the residual filter — the
// caller gets ok=false and keeps the conjunct.
func boundsFor(op string, k float64) (keyBounds, bool) {
	// The residual evaluator compares keys as float64, which is exact
	// only within ±2^53. Pushing down a bound outside that region would
	// disagree with how the same predicate evaluates when it is not
	// sargable (e.g. under an OR), so decline and keep the conjunct in
	// the filter. |k| < 2^53 also keeps every derived bound (k±1) inside
	// the exact region.
	if math.IsNaN(k) || k <= -(1<<53) || k >= 1<<53 {
		return keyBounds{}, false
	}
	b := unboundedKeys()
	floor, ceil := int64(math.Floor(k)), int64(math.Ceil(k))
	switch op {
	case "=":
		if floor != ceil { // fractional: no BIGINT key can match
			b.empty = true
			return b, true
		}
		b.addLo(floor)
		b.addHi(floor)
	case ">=":
		b.addLo(ceil)
	case ">":
		b.addLo(floor + 1)
	case "<=":
		b.addHi(floor)
	case "<":
		b.addHi(ceil - 1)
	default:
		return keyBounds{}, false
	}
	return b, true
}

// ---- pipeline construction ----------------------------------------------

// pipeline is a ready-to-run operator tree plus its output shape and
// the plan tree describing it (rendered by EXPLAIN, annotated in place
// by the analyze wrappers when the pipeline is instrumented).
type pipeline struct {
	root      batchOperator
	columns   []string
	plan      *obs.PlanNode
	batchRows int // row capacity of the batches the consumer hands down
}

// planState threads plan-node construction and optional operator
// instrumentation through pipeline assembly. When instrumenting, every
// operator is wrapped in an analyze shim that counts rows/batches,
// accumulates wall time, and attributes buffer-pool and blob-chunk
// reads to its subtree by sampling the statement's own database's pool
// and blob-store counters around each child call (see explain.go), not
// the registry, which scatter members may share.
type planState struct {
	instrument bool
	sample     func() (pagesRead, chunkReads uint64)
}

func newPlanState(db *engine.DB, opts ExecOptions) *planState {
	ps := &planState{instrument: opts.instrumented()}
	if ps.instrument {
		ps.sample = func() (uint64, uint64) {
			return db.Pool().LogicalReads(), db.Blobs().ChunkReads()
		}
	}
	return ps
}

// wrap attaches plan node n to op, instrumenting it when asked to.
func (ps *planState) wrap(op batchOperator, n *obs.PlanNode) batchOperator {
	if !ps.instrument {
		return op
	}
	n.Analyzed = true
	return &batchAnalyzeOp{child: op, node: n, sample: ps.sample}
}

// scanPlanNode describes the access path the scan operator was given:
// the sargable analysis collapses to a point lookup, a range scan, a
// full scan, or a provably empty range.
func scanPlanNode(table string, b keyBounds) *obs.PlanNode {
	// Plain concatenation: every statement builds this node, point DML
	// included, and fmt was a measurable share of a point statement.
	var kind string
	switch {
	case b.empty:
		kind = "empty range"
	case b.hasLo && b.hasHi && b.lo == b.hi:
		kind = "point lookup key=" + strconv.FormatInt(b.lo, 10)
	case b.hasLo || b.hasHi:
		lo, hi := "-inf", "+inf"
		if b.hasLo {
			lo = strconv.FormatInt(b.lo, 10)
		}
		if b.hasHi {
			hi = strconv.FormatInt(b.hi, 10)
		}
		kind = "range scan keys [" + lo + ", " + hi + "]"
	default:
		kind = "full scan"
	}
	return &obs.PlanNode{Name: "Scan", Detail: "on " + table + " (" + kind + ")"}
}

func parallelAggPlanNode(table string, lo, hi int64, workers int, residual Expr) *obs.PlanNode {
	n := &obs.PlanNode{
		Name:   "Parallel Aggregate Scan",
		Detail: fmt.Sprintf("on %s (range scan keys [%d, %d])", table, lo, hi),
	}
	n.AddExtra("workers", "%d", workers)
	if residual != nil {
		n.AddExtra("filter", "%s", exprText(residual))
	}
	return n
}

// compiledStmt is the outcome of compiling a statement's expressions.
type compiledStmt struct {
	items     []compiled
	columns   []string
	where     compiled // residual predicate (after pushdown), may be nil
	accs      []*accumulator
	used      []bool // schema columns referenced anywhere in the plan
	aggregate bool
}

// compileStmt compiles the statement's expressions against the table
// schema, registering aggregate accumulators. residualWhere replaces
// stmt.Where (the planner strips pushed-down conjuncts first). snap is
// the read view MAX-column derefs resolve blob pages through.
func compileStmt(db *engine.DB, tbl *engine.Table, stmt *SelectStmt, residualWhere Expr, snap *engine.Snapshot) (*compiledStmt, error) {
	cc := &compileCtx{db: db, tbl: tbl, schema: tbl.Schema(), snap: snap, used: make([]bool, len(tbl.Schema().Columns))}
	cs := &compiledStmt{}
	for _, it := range stmt.Items {
		cs.aggregate = cs.aggregate || hasAggregate(it.Expr)
	}
	for i, it := range stmt.Items {
		c, err := cc.compile(it.Expr, cs.aggregate)
		if err != nil {
			return nil, err
		}
		cs.items = append(cs.items, c)
		name := it.Alias
		if name == "" {
			name = exprText(it.Expr)
			if len(name) > 40 {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		cs.columns = append(cs.columns, name)
	}
	if stmt.Where != nil && hasAggregate(stmt.Where) {
		return nil, fmt.Errorf("sql: aggregates are not allowed in WHERE")
	}
	if residualWhere != nil {
		w, err := cc.compile(residualWhere, false)
		if err != nil {
			return nil, err
		}
		cs.where = w
	}
	cs.accs = cc.accs
	cs.used = cc.used
	return cs, nil
}

// buildPipeline lowers a statement into an operator tree:
//
//	scan → [filter] → [aggregate | limit] → project
//
// with the scan/filter/aggregate prefix replaced by one parallel operator
// — the same prefix once per key span — when the aggregate scan is big
// enough. Every scan in the tree, the parallel aggregate workers'
// included, reads through snap, so the whole query observes one commit.
func buildPipeline(db *engine.DB, tbl *engine.Table, stmt *SelectStmt, snap *engine.Snapshot, opts ExecOptions) (*pipeline, error) {
	bounds := unboundedKeys()
	residual := stmt.Where
	if stmt.Where != nil && !hasAggregate(stmt.Where) {
		bounds, residual = extractKeyBounds(stmt.Where, tbl.Schema())
	}
	cs, err := compileStmt(db, tbl, stmt, residual, snap)
	if err != nil {
		return nil, err
	}

	ps := newPlanState(db, opts)
	var root batchOperator
	var plan *obs.PlanNode
	if cs.aggregate && !bounds.empty {
		if plo, phi, workers, ok := parallelAggSpan(tbl, snap, bounds.loKey(), bounds.hiKey(), opts); ok {
			plan = parallelAggPlanNode(tbl.Name(), plo, phi, workers, residual)
			root = ps.wrap(&batchParallelAggOp{
				db: db, tbl: tbl, snap: snap, stmt: stmt, residual: residual, opts: opts,
				lo: plo, hi: phi, workers: workers, accs: cs.accs,
			}, plan)
		}
	}
	if root == nil {
		root, plan = ps.scanFilterAgg(tbl, snap, opts.Ctx, bounds, residual, cs)
	}
	// TOP n on an aggregate plan is vacuous (exactly one row is emitted,
	// and the parser guarantees n >= 1); omitting the limit keeps its
	// downward cap clip from shrinking the aggregate's scan batches.
	if stmt.Top > 0 && !cs.aggregate {
		ln := &obs.PlanNode{Name: "Limit", Detail: fmt.Sprintf("TOP %d", stmt.Top), Children: []*obs.PlanNode{plan}}
		root = ps.wrap(&batchLimitOp{child: root, n: stmt.Top, clip: cs.where == nil}, ln)
		plan = ln
	}
	plan = &obs.PlanNode{
		Name:     "Project",
		Detail:   "[" + strings.Join(cs.columns, ", ") + "]",
		Children: []*obs.PlanNode{plan},
	}
	root = ps.wrap(&batchProjectOp{child: root, items: cs.items}, plan)
	return &pipeline{root: root, columns: cs.columns, plan: plan, batchRows: bounds.batchRows(opts.rowsPerBatch())}, nil
}

// scanFilterAgg assembles the scan → [filter] → [aggregate] stack over the
// key range in bounds. It is the one place these three operators are wired
// together and the only code that builds a table scan: buildPipeline puts
// limit and projection on top, drainStack runs it bare for a scatter
// member's or parallel worker's partial accumulators (partitionPartial)
// and for the read phase of UPDATE and DELETE.
func (ps *planState) scanFilterAgg(tbl *engine.Table, snap *engine.Snapshot, qctx context.Context,
	bounds keyBounds, residual Expr, cs *compiledStmt) (batchOperator, *obs.PlanNode) {
	lo, hi := bounds.loKey(), bounds.hiKey()
	if bounds.empty {
		lo, hi = 1, 0 // empty range: the scan yields nothing
	}
	plan := scanPlanNode(tbl.Name(), bounds)
	root := ps.wrap(&batchScanOp{tbl: tbl, snap: snap, qctx: qctx, lo: lo, hi: hi, need: cs.used}, plan)
	if cs.where != nil {
		plan = &obs.PlanNode{Name: "Filter", Detail: exprText(residual), Children: []*obs.PlanNode{plan}}
		root = ps.wrap(&batchFilterOp{child: root, qctx: qctx, pred: cs.where}, plan)
	}
	if cs.aggregate {
		plan = &obs.PlanNode{Name: "Aggregate", Children: []*obs.PlanNode{plan}}
		root = ps.wrap(&batchAggOp{child: root, qctx: qctx, accs: cs.accs}, plan)
	}
	return root, plan
}

// drainStack runs cs's scan → [filter] → [aggregate] stack over bounds
// where there is no Rows to pull it: it opens the stack, hands every batch
// it yields to each, and releases the cursor's pins however it ends. A
// nil each just drains — an aggregate stack folds the rows into cs.accs
// itself.
func drainStack(tbl *engine.Table, snap *engine.Snapshot, bounds keyBounds, residual Expr,
	cs *compiledStmt, opts ExecOptions, each func(b *rowBatch, n int) error) error {
	root, _ := new(planState).scanFilterAgg(tbl, snap, opts.Ctx, bounds, residual, cs)
	defer root.close()
	if err := root.open(); err != nil {
		return err
	}
	b := newBatch(len(tbl.Schema().Columns))
	rows := bounds.batchRows(opts.rowsPerBatch())
	for {
		if err := pollCancel(opts.Ctx); err != nil {
			return err
		}
		b.reset(rows)
		n, err := root.nextBatch(b)
		if n == 0 || err != nil {
			return err
		}
		if each != nil {
			if err := each(b, n); err != nil {
				return err
			}
		}
	}
}

// parallelAggSpan decides whether an aggregate scan is worth running in
// parallel, returning the key range clipped to the keys actually present
// so the partitions cover real data. Row count and key bounds come from
// the snapshot, so the decision and the partition layout match the data
// the workers will actually scan.
func parallelAggSpan(tbl *engine.Table, snap *engine.Snapshot, lo, hi int64, opts ExecOptions) (int64, int64, int, bool) {
	workers := opts.workers()
	if workers < 2 || tbl.RowsAt(snap) < opts.threshold() {
		return 0, 0, 0, false
	}
	minKey, maxKey, ok, err := tbl.KeyBoundsAt(snap)
	if err != nil || !ok {
		return 0, 0, 0, false
	}
	if minKey > lo {
		lo = minKey
	}
	if maxKey < hi {
		hi = maxKey
	}
	if lo > hi {
		return 0, 0, 0, false
	}
	// A narrow pushed-down range caps the rows at span+1 no matter how
	// big the table is — not worth the partition and goroutine setup.
	if span := uint64(hi) - uint64(lo); span != ^uint64(0) && span+1 < uint64(opts.threshold()) {
		return 0, 0, 0, false
	}
	return lo, hi, workers, true
}
