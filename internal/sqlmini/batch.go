package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sqlarray/internal/engine"
)

// This file implements the executor: a tree of batch-at-a-time operators
// streaming rows from the clustered index up through filters, aggregation,
// TOP and projection. It is the only code that reads table rows: SELECT
// runs the whole tree, UPDATE and DELETE drain its scan → filter prefix.
//
// Operators exchange a *rowBatch — a resizable column-major chunk of up
// to ExecOptions.batchSize rows, one typed engine.Vector per referenced
// column — through
//
//	nextBatch(b *rowBatch) (int, error)
//
// The consumer (Rows) owns the rowBatch and passes it down the tree; the
// scan fills its vectors directly from B+tree leaf runs, filters compact them
// in place through a selection vector, and the aggregate drains whole
// batches into its accumulators. A batch's contents are valid until the
// next nextBatch or close call on the producer, except for rowBatch.out
// rows, which the projection carves from a fresh slab per batch and are
// therefore safe to retain indefinitely (that is what Rows hands to
// callers).
//
// Limits propagate *down* the tree: batchLimitOp sits below the
// projection and, with no filter under it, clips b.cap before
// delegating, so a TOP 3 under a 1024-row batch still reads only the
// first leaf instead of overfetching a full batch.

// defaultBatchSize is the row capacity of a pipeline batch when
// ExecOptions.batchSize is zero. ~1024 rows keeps a batch of a few
// float columns well inside L2 while amortizing per-batch overheads.
const defaultBatchSize = 1024

// rowBatch is a column-major chunk of rows flowing between batch operators.
type rowBatch struct {
	keys []int64          // clustered keys of the live rows, [0:n)
	cols []*engine.Vector // per schema column; nil for columns the plan never reads
	n    int              // live row count
	cap  int              // max rows the producer may fill this round

	// aggVals carries aggregate results once batchAggOp (or the parallel
	// variant) has collapsed the stream into its single output row.
	aggVals []engine.Value

	// out is the projected output, row i at out[i*width:(i+1)*width]:
	// a fresh slab each batch from batchProjectOp, so each row is safe
	// to retain.
	out   []engine.Value
	width int
}

// makeCols gives b a vector for every schema column need marks, before a
// scan fills them. The vectors a batch lacks are allocated together, so a
// statement's first fill costs two allocations however many columns it
// reads, and later fills reuse them.
func (b *rowBatch) makeCols(need []bool) {
	if b.cols == nil {
		b.cols = make([]*engine.Vector, len(need))
	}
	missing := 0
	for ci, use := range need {
		if use && b.cols[ci] == nil {
			missing++
		}
	}
	vecs := make([]engine.Vector, missing)
	for ci, use := range need {
		if use && b.cols[ci] == nil {
			b.cols[ci], vecs = &vecs[0], vecs[1:]
		}
	}
}

// row returns projected output row i.
func (b *rowBatch) row(i int) []engine.Value {
	return b.out[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// reset empties the batch and sets the fill capacity for the next round.
// Previously returned out rows stay valid (they own their slab); column
// vectors are refilled from scratch by the next scan.
func (b *rowBatch) reset(capRows int) {
	b.n = 0
	b.cap = capRows
	b.aggVals = nil
	if cap(b.keys) < capRows {
		b.keys = make([]int64, capRows)
	}
	b.keys = b.keys[:capRows]
}

// col returns the decoded vector of schema column ci.
func (b *rowBatch) col(ci int) (*engine.Vector, error) {
	if v := b.cols[ci]; v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("sql: internal: column %d not decoded into batch", ci)
}

// compact keeps only the rows named by the selection vector sel (ascending
// row indices), moving survivors to the front of every live column in
// place, and returns the new row count.
func (b *rowBatch) compact(sel []int) int {
	for j, i := range sel {
		b.keys[j] = b.keys[i]
	}
	for _, col := range b.cols {
		if col != nil {
			col.Compact(sel)
		}
	}
	b.n = len(sel)
	return b.n
}

// batchOperator is the executor protocol:
//
//   - open acquires resources (cursors); it is called once, top-down.
//   - nextBatch fills b with up to b.cap rows and returns how many were
//     produced; 0 with a nil error means end of stream.
//   - close releases resources; it must be idempotent, because
//     batchLimitOp and batchAggOp close their child early to release page
//     pins the moment they have what they need, and the pipeline is
//     closed again as a whole.
//
// To add an operator (ORDER BY, GROUP BY, ...): implement the interface,
// place it in the tree inside buildPipeline, and nothing else changes.
type batchOperator interface {
	open() error
	nextBatch(b *rowBatch) (int, error)
	close() error
}

// pollCancel is the executor's cancellation check: every loop that
// advances a batch stream or a cursor calls it once per iteration (the
// ctxloop analyzer enforces this). A nil ctx — the default ExecOptions —
// costs one branch; a canceled ctx surfaces ctx.Err() through the normal
// error path, so the pipeline's close still releases every pin.
func pollCancel(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ---- scan ---------------------------------------------------------------

// batchScanOp fills batches straight from the clustered index cursor,
// decoding only the columns the plan references (need); binary values are
// copied off the pinned page into their column vector. deref marks the
// MAX columns the plan materializes, whose blobs bound a fill's bytes.
type batchScanOp struct {
	tbl    *engine.Table
	snap   *engine.Snapshot
	qctx   context.Context
	lo, hi int64
	need   []bool
	deref  []bool
	cur    *engine.Cursor
}

func (s *batchScanOp) open() error {
	cur, err := s.tbl.CursorRangeAt(s.snap, s.lo, s.hi)
	if err != nil {
		return err
	}
	s.cur = cur
	return nil
}

func (s *batchScanOp) nextBatch(b *rowBatch) (int, error) {
	if s.cur == nil {
		return 0, nil
	}
	if err := pollCancel(s.qctx); err != nil {
		return 0, err
	}
	b.makeCols(s.need)
	n, err := s.cur.FillBatch(b.keys[:b.cap], b.cols, s.deref)
	b.n = n
	return n, err
}

func (s *batchScanOp) close() error {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	return nil
}

// ---- filter -------------------------------------------------------------

// batchFilterOp evaluates the residual predicate over a whole batch and
// compacts the survivors in place through a selection vector. Empty
// batches are refilled internally so consumers never see a zero-row
// batch before end of stream.
type batchFilterOp struct {
	child batchOperator
	qctx  context.Context
	pred  compiled
	sel   []int
}

func (f *batchFilterOp) open() error { return f.child.open() }

func (f *batchFilterOp) nextBatch(b *rowBatch) (int, error) {
	for {
		if err := pollCancel(f.qctx); err != nil {
			return 0, err
		}
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
		vals, err := f.pred.evalBatch(b, n)
		if err != nil {
			return 0, err
		}
		sel := rowsWhere(f.sel[:0], vals, n, true)
		f.sel = sel
		if len(sel) == n || b.compact(sel) > 0 {
			return len(sel), nil
		}
		// Everything filtered out: empty the batch and pull more rows.
		b.n = 0
	}
}

func (f *batchFilterOp) close() error { return f.child.close() }

// rowsWhere appends to sel the rows of [0, n) at which v is true (want)
// or is not (!want; NULL counts as false), in ascending order.
func rowsWhere(sel []int, v *engine.Vector, n int, want bool) []int {
	if v.Kind == engine.ColInt64 && v.Uniform() && !v.HasNulls() && !v.Const {
		// What every comparison, AND and OR yield: a 0/1 BIGINT per row.
		for i, x := range v.I[:n] {
			if (x != 0) == want {
				sel = append(sel, i)
			}
		}
		return sel
	}
	for i := 0; i < n; i++ {
		if truthy(v.Value(i)) == want {
			sel = append(sel, i)
		}
	}
	return sel
}

// ---- aggregate ----------------------------------------------------------

// batchAggOp drains its child batch-at-a-time into the accumulators and
// then emits a single-row batch carrying the aggregate results. It is the
// one pipeline breaker in the operator set (as in any engine: aggregation
// cannot stream its input away).
type batchAggOp struct {
	child batchOperator
	qctx  context.Context
	accs  []*accumulator
	done  bool
}

func (a *batchAggOp) open() error { return a.child.open() }

func (a *batchAggOp) nextBatch(b *rowBatch) (int, error) {
	if a.done {
		return 0, nil
	}
	a.done = true
	for {
		if err := pollCancel(a.qctx); err != nil {
			return 0, err
		}
		n, err := a.child.nextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		for _, acc := range a.accs {
			if err := acc.addBatch(b, n); err != nil {
				return 0, err
			}
		}
		b.n = 0
	}
	// Release the scan before emitting: the aggregate row references no
	// page memory.
	if err := a.child.close(); err != nil {
		return 0, err
	}
	b.setAggregates(a.accs)
	return 1, nil
}

func (a *batchAggOp) close() error { return a.child.close() }

// setAggregates turns b into the single output row of an aggregate plan.
func (b *rowBatch) setAggregates(accs []*accumulator) {
	b.n = 1
	b.aggVals = make([]engine.Value, len(accs))
	for i, acc := range accs {
		b.aggVals[i] = acc.result()
	}
}

// ---- parallel aggregate scan -------------------------------------------

// batchParallelAggOp runs scan → filter → aggregate across goroutines:
// the key range [lo, hi] is partitioned into contiguous spans and each
// worker is a partitionPartial over its span — the function a scatter
// member runs over its partition — reading through the query's shared
// snapshot. Compiled expressions are stateful (scratch vectors,
// accumulators), so every worker compiles its own copy of the statement;
// the partials merge into accs in partition order.
//
// Floating-point SUM/AVG associate differently than a serial scan when
// partials are merged; results are deterministic for a fixed worker
// count.
//
// Partitioning is by key value, which balances well for the dense
// sequential ids this engine's workloads use but degenerates under
// heavily skewed key distributions (one worker owns the dense region);
// partitioning by leaf pages would fix that and is a planned follow-up.
type batchParallelAggOp struct {
	db       *engine.DB
	tbl      *engine.Table
	snap     *engine.Snapshot // shared read view; safe for concurrent workers
	stmt     *SelectStmt
	residual Expr
	opts     ExecOptions
	lo, hi   int64 // key range to aggregate over (inclusive, lo <= hi)
	workers  int
	accs     []*accumulator // merge target (the main plan's accumulators)
	done     bool
}

func (p *batchParallelAggOp) open() error { return nil }

func (p *batchParallelAggOp) nextBatch(b *rowBatch) (int, error) {
	if p.done {
		return 0, nil
	}
	p.done = true
	spans := partitionSpans(p.lo, p.hi, p.workers)
	partials := make([][]*accumulator, len(spans))
	err := fanOut(p.opts.Ctx, len(spans), len(spans), func(ctx context.Context, i int) error {
		opts := p.opts
		opts.Ctx = ctx
		span := keyBounds{lo: spans[i][0], hi: spans[i][1], hasLo: true, hasHi: true}
		var err error
		partials[i], err = partitionPartial(p.db, p.tbl, p.snap, p.stmt, p.residual, span, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	mergePartials(p.accs, partials)
	b.setAggregates(p.accs)
	return 1, nil
}

func (p *batchParallelAggOp) close() error { return nil }

// mergePartials folds per-partition accumulator sets into accs in
// partition order, which keeps float results deterministic for a fixed
// partition layout. Every set is index-aligned with accs: all come from
// compiling the same statement.
func mergePartials(accs []*accumulator, partials [][]*accumulator) {
	for _, part := range partials {
		for i, acc := range part {
			accs[i].merge(acc)
		}
	}
}

// fanOut runs fn(ctx, i) for i in [0, n) on up to workers goroutines and
// waits for all of them. The ctx handed to fn is derived from the
// caller's and is canceled as soon as any fn fails, so the siblings —
// whose operators poll it per batch — stop within one batch. The result
// is the caller's own ctx.Err() if it was canceled, otherwise the first
// error in partition order that is not merely a sibling echoing the
// derived context's cancellation.
func fanOut(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if err := pollCancel(ctx); err != nil {
		return err
	}
	parent := ctx
	if parent == nil {
		parent = context.Background() // a nil ExecOptions.Ctx never cancels
	}
	sub, cancel := context.WithCancel(parent)
	defer cancel()
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if errs[i] = sub.Err(); errs[i] != nil {
				return // a sibling failed before this one started
			}
			if errs[i] = fn(sub, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := pollCancel(ctx); err != nil {
		return err
	}
	var echo error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		if echo == nil {
			echo = err
		}
	}
	return echo
}

// partitionSpans splits the inclusive key range [lo, hi] into up to
// workers contiguous sub-ranges covering it exactly. The arithmetic is
// wrap-safe across the full int64 span.
func partitionSpans(lo, hi int64, workers int) [][2]int64 {
	w := workers
	span := uint64(hi) - uint64(lo) // key count - 1; wrap-safe
	if span != ^uint64(0) && span+1 < uint64(w) {
		w = int(span + 1)
	}
	if w < 1 {
		w = 1
	}
	// Ceiling division so the remainder spreads across workers instead of
	// all landing on the last one.
	step := span / uint64(w)
	if span%uint64(w) != 0 {
		step++
	}
	if step == 0 {
		step = 1
	}
	spans := make([][2]int64, 0, w)
	for i := 0; i < w; i++ {
		offLo := step * uint64(i)
		if offLo > span {
			break // earlier partitions already cover everything
		}
		offHi := offLo + step - 1
		if offHi < offLo || offHi > span || i == w-1 {
			offHi = span
		}
		spans = append(spans, [2]int64{int64(uint64(lo) + offLo), int64(uint64(lo) + offHi)})
	}
	return spans
}

// ---- project ------------------------------------------------------------

// batchProjectOp evaluates the SELECT items over the batch and carves the
// output rows from a fresh slab, so every row handed upward is safe to
// retain after the batch is refilled. Binary values are copied off the
// vector, whose bytes may be an arena the next batch overwrites, for the
// same reason.
type batchProjectOp struct {
	child batchOperator
	items []compiled
}

func (p *batchProjectOp) open() error { return p.child.open() }

func (p *batchProjectOp) nextBatch(b *rowBatch) (int, error) {
	n, err := p.child.nextBatch(b)
	if n == 0 || err != nil {
		return 0, err
	}
	ncols := len(p.items)
	slab := make([]engine.Value, n*ncols)
	for ci, it := range p.items {
		vals, err := it.evalBatch(b, n)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			v := vals.Value(i)
			if v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax {
				v.B = append([]byte(nil), v.B...)
			}
			slab[i*ncols+ci] = v
		}
	}
	b.out, b.width = slab, ncols
	return n, nil
}

func (p *batchProjectOp) close() error { return p.child.close() }

// ---- limit --------------------------------------------------------------

// batchLimitOp stops the pipeline after n rows (TOP n / LIMIT n) and
// closes its child the moment the limit is reached, so the scan's page
// pins are released without waiting for the consumer to finish with the
// Rows. It sits below the projection — TOP counts post-filter rows and
// projection preserves the row count — so SELECT items (UDF calls
// included) are evaluated for exactly the rows that are returned. When
// clip is set (no residual filter below, so the scan's row count is the
// output's) it also pushes the remaining budget down by clipping b.cap
// before delegating, so a TOP 3 reads one leaf instead of overfetching a
// full batch. Below a filter the clip would shrink the scan's batches to
// the output budget and erase the vectorization win, so the filter scans
// full batches and the limit drops the surplus rows here instead.
type batchLimitOp struct {
	child batchOperator
	n     int64
	seen  int64
	clip  bool
}

func (l *batchLimitOp) open() error { return l.child.open() }

func (l *batchLimitOp) nextBatch(b *rowBatch) (int, error) {
	rem := l.n - l.seen
	if rem <= 0 {
		return 0, nil
	}
	if l.clip && int64(b.cap) > rem {
		b.cap = int(rem)
	}
	n, err := l.child.nextBatch(b)
	if err != nil {
		return 0, err
	}
	if int64(n) > rem {
		n = int(rem)
		b.n = n
	}
	l.seen += int64(n)
	if l.seen >= l.n {
		if err := l.child.close(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (l *batchLimitOp) close() error { return l.child.close() }
