package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// This file implements the engine's write sessions — the unit of
// durability. Every DML statement (and CREATE TABLE) runs inside a Tx:
//
//  1. Begin takes the database write lock (the engine is single-writer,
//     like SQLite) and starts a buffer-pool capture, so every frame the
//     statement dirties is recorded and marked unflushable.
//  2. The statement mutates pages freely through the B-tree and blob
//     layers; nothing it touches can reach the database file.
//  3. Commit appends a full after-image of each dirtied page to the
//     WAL, stamps the frames' pageLSNs, appends a commit record carrying
//     the catalog delta (tree roots, row counts, new table schemas), and
//     syncs the log — the WAL-before-flush protocol. Only then may the
//     buffer pool write those frames to the database file.
//
// Redo is physical and idempotent: recovery replays committed page
// images in log order, so it converges from any mix of flushed and
// unflushed pages, and a torn database-file write is repaired by the
// logged image. Records after the last commit record are an uncommitted
// tail and are truncated away. No before-images (undo) are needed.

// walTableState is the catalog entry logged in commit and checkpoint
// records: everything needed to re-attach a table after recovery. Cols
// is present only when the record introduces the table (CREATE TABLE or
// a checkpoint snapshot).
type walTableState struct {
	Name      string      `json:"name"`
	Cols      []walColumn `json:"cols,omitempty"`
	Key       int         `json:"key,omitempty"`
	Root      uint32      `json:"root"`
	Height    int         `json:"height"`
	Count     int         `json:"count"`
	RowBytes  int64       `json:"rowBytes"`
	BlobBytes int64       `json:"blobBytes"`
}

type walColumn struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

// walCatalog is the payload of commit records (delta: changed tables)
// and checkpoint records (snapshot: all tables).
type walCatalog struct {
	Tables []walTableState `json:"tables"`
}

// Tx is a write session. It owns the database write lock from Begin to
// Commit; all mutating Table methods take one (the convenience wrappers
// open a single-statement session internally).
//
// cat is the session's catalog: nil until the session first writes a
// table, then a private copy of the published catalog that CREATE
// TABLE appends to and Commit fills from the tables' live state and
// publishes.
type Tx struct {
	db   *DB
	cap  *pages.Capture
	cat  *catalog
	done bool
}

// Begin opens a write session, serializing against all other writers
// and starting the dirty-frame capture. The capture makes every page
// the session touches copy-on-write: snapshot readers keep resolving
// the pre-images until Commit publishes, and Abort discards the copies
// as if the session never ran.
func (db *DB) Begin() (*Tx, error) {
	db.writeMu.Lock()
	c, err := db.bp.BeginCapture()
	if err != nil {
		db.writeMu.Unlock()
		return nil, err
	}
	return &Tx{db: db, cap: c}, nil
}

// beginTxLocked opens a write session for a caller that already holds
// db.writeMu — the bulk loader, which needs the writer lock across its
// capture-free staging phase before opening the capture that covers its
// catalog graft. Commit/Abort release writeMu as usual; if this errors,
// the caller still owns the lock.
func (db *DB) beginTxLocked() (*Tx, error) {
	c, err := db.bp.BeginCapture()
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, cap: c}, nil
}

// logFrame appends one dirty frame's after-image to the WAL and stamps
// its pageLSN, making the frame flushable once the log syncs past it.
// Shared by Tx.Commit (capture frames) and the bulk loader (fresh pages
// streamed out while still pinned).
func (db *DB) logFrame(f *pages.Frame) error {
	l := db.wal
	return db.bp.LogDirtyFrame(f, func(p *pages.Page) (uint64, error) {
		// Blob and free-list pages get truncated after-images: their
		// meaningful bytes end at Used() (compressed chunks in
		// particular use a fraction of the 8 kB body), so logging
		// header+used shrinks the log. Recovery zero-extends, which
		// is byte-exact only if the tail really is zero — clear it
		// BEFORE stamping the LSN and checksum so the reconstructed
		// page checksums identically.
		prefix := false
		switch p.Type() {
		case pages.TypeBlobData, pages.TypeBlobTree, pages.TypeFree:
			prefix = true
			clear(p.Body()[p.Used():])
		}
		lsn := uint64(l.NextLSN())
		p.SetLSN(lsn)
		p.UpdateChecksum()
		// The record's payload is the 4-byte page id then the page
		// bytes; Append copies both parts straight into its buffer.
		typ, n := wal.RecPageImage, pages.PageSize
		if prefix {
			typ, n = wal.RecPagePrefix, pages.HeaderSize+p.Used()
		}
		var id [4]byte
		binary.LittleEndian.PutUint32(id[:], uint32(p.ID))
		got, err := l.Append(typ, id[:], p.Buf[:n])
		return uint64(got), err
	})
}

// touch returns the session's catalog, copying the published one on
// the session's first write to a table, so Commit publishes the
// session's table states.
func (tx *Tx) touch() *catalog {
	if tx.cat == nil {
		tx.cat = &catalog{tables: slices.Clone(tx.db.cat.Load().tables)}
	}
	return tx.cat
}

// Commit logs the session's page after-images and catalog delta (when a
// WAL is attached), syncs the WAL, publishes the session's page
// versions and catalog atomically — one commit-clock tick, so a
// concurrent snapshot sees all of the commit or none of it — and
// releases the write lock.
// Commit is idempotent; a Tx must not be used after it.
func (tx *Tx) Commit() error {
	if tx.done {
		return nil
	}
	tx.done = true
	defer tx.db.writeMu.Unlock()
	frames := tx.db.bp.EndCapture(tx.cap)
	if len(frames) == 0 && tx.cat == nil {
		return nil // read-only session: nothing to log or publish
	}
	if tx.cat != nil {
		for i := range tx.cat.tables {
			tx.cat.tables[i] = tx.cat.tables[i].t.live()
		}
	}
	if tx.db.wal == nil {
		tx.publish()
		return nil
	}
	l := tx.db.wal
	var firstErr error
	for _, f := range frames {
		if err := tx.db.logFrame(f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// A page image failed to reach the log. Without it, a commit
		// record would let recovery apply this group's catalog delta
		// against stale pages — silent corruption. Leave the group
		// uncommitted and unpublished: recovery discards it wholesale,
		// the frames stay pending (unflushable, off the LRU), and
		// snapshot readers keep resolving the pre-images — the database
		// degrades to read-only rather than diverging from its log.
		return firstErr
	}
	payload, err := json.Marshal(tx.catalogDelta())
	if err != nil {
		return fmt.Errorf("engine: encoding commit record: %w", err)
	}
	if _, err := l.Append(wal.RecCommit, payload); err != nil {
		firstErr = err
	}
	if err := l.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	// Publish even when the commit record or sync degraded: the page
	// images are logged and the in-memory state reflects the statement,
	// so readers should see it — only durability is weakened, and the
	// error still reaches the caller.
	tx.publish()
	return firstErr
}

// publish makes the session's work visible: stamp every captured frame
// with the next commit tag, then, under the publish mutex, advance the
// commit clock and swap in the session's catalog. A snapshot reads its
// tag and catalog under the same mutex, so it sees the whole commit or
// none of it.
func (tx *Tx) publish() {
	db := tx.db
	tag := db.bp.PreparePublish(tx.cap)
	db.pubMu.Lock()
	db.bp.FinishPublish(tag)
	if tx.cat != nil {
		db.cat.Store(tx.cat)
	}
	db.pubMu.Unlock()
	db.m.commits.Inc()
}

// Abort discards the session: captured page copies are invalidated (the
// WAL-before-flush victim scan can never persist them), displaced
// pre-images are restored, every table's live state is reset from the
// published catalog, the session's catalog — with any table it created
// — is dropped, and the write lock is released. Nothing is logged — a
// plain abort appends no WAL records, so recovery cannot resurrect any
// of it. Idempotent (after Commit it is a no-op).
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.m.aborts.Inc()
	defer tx.db.writeMu.Unlock()
	tx.db.bp.EndCapture(tx.cap)
	tx.db.bp.AbortCapture(tx.cap)
	if tx.cat == nil {
		return
	}
	for _, st := range tx.db.cat.Load().tables {
		if st.t.live() != st {
			st.t.restore(st)
		}
	}
}

// Close finishes the session: on a nil opErr it commits and returns the
// commit error; on a non-nil opErr it aborts — releasing the write lock
// and rolling every partial page and catalog effect back — and returns
// opErr. This is the one-liner for single-statement wrappers: a failed
// statement leaves the database exactly as it found it.
func (tx *Tx) Close(opErr error) error {
	if opErr != nil {
		tx.Abort()
		return opErr
	}
	return tx.Commit()
}

// catalogDelta builds the commit record's table list: the entries of
// the session's catalog that differ from the published one, with the
// schema of each table the session created.
func (tx *Tx) catalogDelta() walCatalog {
	var cat walCatalog
	if tx.cat == nil {
		return cat
	}
	prev := tx.db.cat.Load().tables
	for i, st := range tx.cat.tables {
		if i < len(prev) && prev[i] == st {
			continue
		}
		cat.Tables = append(cat.Tables, st.walState(i >= len(prev)))
	}
	return cat
}

// walState is the logged form of a catalog entry. withSchema includes
// the column definitions (CREATE TABLE commits and checkpoint
// snapshots).
func (st tableState) walState(withSchema bool) walTableState {
	w := walTableState{
		Name:      st.t.name,
		Root:      uint32(st.root),
		Height:    st.height,
		Count:     st.count,
		RowBytes:  st.rowBytes,
		BlobBytes: st.blobBytes,
	}
	if withSchema {
		w.Key = st.t.schema.Key
		for _, c := range st.t.schema.Columns {
			w.Cols = append(w.Cols, walColumn{Name: c.Name, Type: uint8(c.Type)})
		}
	}
	return w
}
