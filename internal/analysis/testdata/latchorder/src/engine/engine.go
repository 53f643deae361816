// Package engine mocks the engine's lock hierarchy: DB.writeMu (0) →
// DB.pubMu (1) → the pool's snapMu (2) → pool stripe (3). pubMu pairs a
// commit's clock tick with its catalog swap.
package engine

import (
	"sync"

	"pages"
)

type DB struct {
	writeMu sync.Mutex
	pubMu   sync.Mutex
	bp      *pages.BufferPool
}

type Tx struct {
	db *DB
}

func (db *DB) Begin() (*Tx, error) {
	db.writeMu.Lock()
	return &Tx{db: db}, nil
}

func (tx *Tx) Close() error {
	tx.db.writeMu.Unlock()
	return nil
}

type Table struct {
	db *DB
	bp *pages.BufferPool
}

func (t *Table) InsertTx(tx *Tx, v int) error {
	return nil
}

// good: the documented descent order — a commit publishes under the
// writer lock, and the pool takes snapMu and the stripes below pubMu.
func goodOrder(db *DB) {
	db.writeMu.Lock()
	db.pubMu.Lock()
	db.bp.FinishPublish(2)
	db.pubMu.Unlock()
	db.writeMu.Unlock()
}

// bad: the writer lock taken under the publish mutex.
func badOrder(db *DB) {
	db.pubMu.Lock()
	db.writeMu.Lock() // want `acquiring db\.writeMu while holding db\.pubMu violates the latch order`
	db.writeMu.Unlock()
	db.pubMu.Unlock()
}

func lockWriter(db *DB) {
	db.writeMu.Lock()
	db.writeMu.Unlock()
}

// bad: the same inversion hidden behind an intra-package call.
func badTransitive(db *DB) {
	db.pubMu.Lock()
	lockWriter(db) // want `call may acquire db\.writeMu while db\.pubMu is held`
	db.pubMu.Unlock()
}

// good: holding the publish mutex while descending into the pool is
// the documented order (level 1 → levels 2 and 3).
func goodDescend(t *Table) error {
	t.db.pubMu.Lock()
	defer t.db.pubMu.Unlock()
	f, err := t.bp.Fetch(1)
	if err != nil {
		return err
	}
	t.bp.Unpin(f, false)
	return nil
}

// bad: DML entry point called with no transaction in scope.
func badDML(t *Table) error {
	return t.InsertTx(nil, 1) // want `DML entry point InsertTx requires a write transaction`
}

// good: the transaction is obtained from Begin first.
func goodDML(db *DB, t *Table) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Close()
	return t.InsertTx(tx, 1)
}

// good: *Tx parameter marks the caller as transaction context.
func goodDMLParam(tx *Tx, t *Table) error {
	return t.InsertTx(tx, 1)
}

// good: *Tx receiver likewise.
func (tx *Tx) insertInto(t *Table) error {
	return t.InsertTx(tx, 1)
}

// good: a closure's own *Tx parameter marks its body — the shape of a
// helper that runs fn inside a session it opened.
func goodDMLClosure(run func(func(tx *Tx) error) error, t *Table) error {
	return run(func(tx *Tx) error { return t.InsertTx(tx, 1) })
}

// bad: a closure without a *Tx parameter is judged by its enclosing
// function, which has no transaction.
func badDMLClosure(t *Table) func() error {
	return func() error {
		return t.InsertTx(nil, 1) // want `DML entry point InsertTx requires a write transaction`
	}
}

func suppressedOrder(db *DB) {
	db.pubMu.Lock()
	db.writeMu.Lock() //lint:allow latchorder deliberate inversion exercised by this fixture
	db.writeMu.Unlock()
	db.pubMu.Unlock()
}
