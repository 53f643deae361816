// Package sqlmini mocks the executor's operator protocol; ctxloop only
// fires inside packages named sqlmini.
package sqlmini

import (
	"context"

	"engine"
)

type Batch struct{ out [][]int }

func (b *Batch) reset(capRows int) {}

type batchOperator interface {
	nextBatch(b *Batch) (int, error)
}

func pollCancel(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

type batchFilterOp struct {
	child batchOperator
	ctx   context.Context
}

// bad: drains the child without ever polling cancellation.
func (f *batchFilterOp) drainNoPoll(b *Batch) (int, error) {
	for { // want `advances a row/batch stream without polling cancellation`
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
	}
}

// good: the pollCancel helper is checked each iteration.
func (f *batchFilterOp) drainHelper(b *Batch) (int, error) {
	for {
		if err := pollCancel(f.ctx); err != nil {
			return 0, err
		}
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
	}
}

// good: direct ctx.Err poll.
func (f *batchFilterOp) drainCtxErr(b *Batch) (int, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return 0, err
		}
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
	}
}

// bad: calling through a concrete *fooOp is the protocol too.
func drainConcrete(f *batchFilterOp, b *Batch) (int, error) {
	for { // want `advances a row/batch stream without polling cancellation`
		n, err := f.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
	}
}

func (f *batchFilterOp) nextBatch(b *Batch) (int, error) { return f.drainHelper(b) }

// Rows is the pipeline's consumer: its refill loop advances the root
// operator and is checked like any operator loop.
type Rows struct {
	root batchOperator
	ctx  context.Context
	b    *Batch
	i, n int
	err  error
}

// good: the refill loop polls before every nextBatch.
func (r *Rows) Next() bool {
	for r.i >= r.n {
		if r.err = pollCancel(r.ctx); r.err != nil {
			return false
		}
		n, err := r.root.nextBatch(r.b)
		if n == 0 || err != nil {
			r.err = err
			return false
		}
		r.i, r.n = 0, n
	}
	r.i++
	return true
}

// bad: the same refill loop without the poll.
func (r *Rows) nextNoPoll() bool {
	for r.i >= r.n { // want `advances a row/batch stream without polling cancellation`
		n, err := r.root.nextBatch(r.b)
		if n == 0 || err != nil {
			r.err = err
			return false
		}
		r.i, r.n = 0, n
	}
	r.i++
	return true
}

// not matched: draining the exported Rows.Next is the caller's business.
func drainRows(r *Rows) int {
	rows := 0
	for r.Next() {
		rows++
	}
	return rows
}

// bad: DML's read phase draining a scan → filter stack batch by batch
// without a poll.
func drainStackNoPoll(root batchOperator, b *Batch, each func(*Batch, int) error) error {
	for { // want `advances a row/batch stream without polling cancellation`
		b.reset(1024)
		n, err := root.nextBatch(b)
		if n == 0 || err != nil {
			return err
		}
		if err := each(b, n); err != nil {
			return err
		}
	}
}

// good: the same drain polling before every batch.
func drainStackPolled(ctx context.Context, root batchOperator, b *Batch, each func(*Batch, int) error) error {
	for {
		if err := pollCancel(ctx); err != nil {
			return err
		}
		b.reset(1024)
		n, err := root.nextBatch(b)
		if n == 0 || err != nil {
			return err
		}
		if err := each(b, n); err != nil {
			return err
		}
	}
}

// bad: a vector fill loop straight over a cursor without a poll.
func fillNoPoll(cur *engine.Cursor, keys []int64, cols []*engine.Vector) (int, error) {
	rows := 0
	for { // want `advances a row/batch stream without polling cancellation`
		n, err := cur.FillBatch(keys, cols)
		if n == 0 || err != nil {
			return rows, err
		}
		rows += n
	}
}

// good: the same fill loop polling ctx per batch.
func fillPolled(ctx context.Context, cur *engine.Cursor, keys []int64, cols []*engine.Vector) (int, error) {
	rows := 0
	for {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		n, err := cur.FillBatch(keys, cols)
		if n == 0 || err != nil {
			return rows, err
		}
		rows += n
	}
}

// loops that advance nothing are not the analyzer's business.
func plainLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

func suppressedDrain(f *batchFilterOp, b *Batch) (int, error) {
	//lint:allow ctxloop bounded two-batch drain in this fixture
	for {
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
	}
}
