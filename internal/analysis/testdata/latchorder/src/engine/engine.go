// Package engine mocks the engine's lock hierarchy: DB.writeMu (0) →
// DB.mu (1) → Table.metaMu (2) → pool stripe (3). Level 2 was the
// table reader latch before snapshot reads replaced it; the slot now
// belongs to the catalog-version mutex.
package engine

import (
	"sync"

	"pages"
)

type DB struct {
	mu      sync.RWMutex
	writeMu sync.Mutex
	tables  map[string]*Table
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
	metaMu sync.Mutex
	bp     *pages.BufferPool
}

func (t *Table) InsertTx(tx *Tx, v int) error {
	t.metaMu.Lock()
	defer t.metaMu.Unlock()
	return nil
}

// good: the documented descent order.
func goodOrder(db *DB, t *Table) {
	db.writeMu.Lock()
	db.mu.RLock()
	t.metaMu.Lock()
	t.metaMu.Unlock()
	db.mu.RUnlock()
	db.writeMu.Unlock()
}

// bad: catalog lock taken above the table's version mutex.
func badOrder(db *DB, t *Table) {
	t.metaMu.Lock()
	db.mu.RLock() // want `acquiring db\.mu while holding table\.metaMu violates the latch order`
	db.mu.RUnlock()
	t.metaMu.Unlock()
}

func lockCatalog(db *DB) {
	db.mu.Lock()
	db.mu.Unlock()
}

// bad: the same inversion hidden behind an intra-package call.
func badTransitive(db *DB, t *Table) {
	t.metaMu.Lock()
	lockCatalog(db) // want `call may acquire db\.mu while table\.metaMu is held`
	t.metaMu.Unlock()
}

// good: holding the version mutex while descending into the pool is the
// documented order (level 2 → level 3).
func goodDescend(t *Table) error {
	t.metaMu.Lock()
	defer t.metaMu.Unlock()
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

func suppressedOrder(db *DB, t *Table) {
	t.metaMu.Lock()
	db.mu.RLock() //lint:allow latchorder deliberate inversion exercised by this fixture
	db.mu.RUnlock()
	t.metaMu.Unlock()
}
