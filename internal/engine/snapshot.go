// Snapshot reads: the engine half of MVCC.
//
// A Snapshot freezes the database at a commit: a page tag, whose page
// versions the buffer pool's version store resolves (pages.Snapshot),
// and the catalog that commit published — one immutable value mapping
// every table to its tree root, height, row count and byte counters.
// Together they give a scan a consistent view: the tree it descends and
// every page it reads belong to the same commit, no matter how many
// commits land while the scan streams. The snapshot holds the catalog
// by pointer, so a catalog lives exactly as long as a snapshot (or the
// database, for the newest one) can read it.
//
// Readers never take a table latch. Writers (always under the
// database's single-writer lock) copy-on-write every page they touch
// and publish at commit; scans opened before the commit keep reading
// the superseded versions until they Release.
package engine

import (
	"fmt"
	"sync/atomic"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
)

// Snapshot is a frozen, immutable read view of the whole database as of
// a commit. It is safe for concurrent use by parallel scan workers and
// must be Released exactly like a pin: the buffer pool retains every
// superseded page version a live snapshot reads. Release is idempotent.
type Snapshot struct {
	db       *DB
	ps       *pages.Snapshot
	cat      *catalog
	blobs    *blob.Store
	released atomic.Bool
}

// Snapshot opens a read view at the current commit. Writers never wait
// for it, and it never observes their uncommitted or later work. The
// page tag and the catalog are read under the publish mutex, so they
// come from the same commit.
func (db *DB) Snapshot() *Snapshot {
	db.pubMu.Lock()
	ps := db.bp.AcquireSnapshot()
	cat := db.cat.Load()
	db.pubMu.Unlock()
	db.m.snapshots.Inc()
	return &Snapshot{db: db, ps: ps, cat: cat, blobs: db.blobs.WithFetcher(ps)}
}

// Release deregisters the snapshot, letting the version store retire
// page versions only it was holding. Idempotent.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.ps.Release()
		s.db.m.snapshots.Dec()
	}
}

// Tag returns the snapshot's commit tag.
func (s *Snapshot) Tag() uint64 { return s.ps.Tag() }

// catalog is the table catalog as one commit published it. It is
// immutable once published: Commit builds the next one (Tx.nextCatalog)
// and swaps it in with the commit-clock tick.
type catalog struct {
	tables []tableState // creation order: tables[t.slot] is t's entry
}

// tableState is one table's committed state: its tree attachment and
// the derived counters. The table carries the name and schema.
type tableState struct {
	t         *Table
	root      pages.PageID
	height    int
	count     int // rows, as the tree counts them
	rowBytes  int64
	blobBytes int64
}

// state returns t's entry; ok is false when t is not in the catalog
// (created after it, or by a session that aborted).
func (c *catalog) state(t *Table) (st tableState, ok bool) {
	if t.slot < len(c.tables) && c.tables[t.slot].t == t {
		return c.tables[t.slot], true
	}
	return tableState{}, false
}

// lookup returns the table named name, or nil.
func (c *catalog) lookup(name string) *Table {
	for _, st := range c.tables {
		if st.t.name == name {
			return st.t
		}
	}
	return nil
}

// treeAt opens the table's B+tree as the snapshot sees it. ok is false
// when the snapshot's catalog has no entry for the table (it was
// created after the snapshot opened).
func (t *Table) treeAt(s *Snapshot) (*btree.Tree, bool) {
	st, ok := s.cat.state(t)
	if !ok {
		return nil, false
	}
	return btree.OpenFetch(s.ps, st.root, st.height, st.count), true
}

// CursorRangeAt opens a streaming scan over keys in [lo, hi],
// inclusive, as of s. The underlying iterator stops (and unpins) as
// soon as it passes hi, so a key-range query touches only the
// root-to-leaf descent plus the pages the range spans.
func (t *Table) CursorRangeAt(s *Snapshot, lo, hi int64) (*Cursor, error) {
	tree, ok := t.treeAt(s)
	if !ok {
		return &Cursor{it: btree.EmptyIterator(), schema: &t.schema}, nil
	}
	it, err := tree.ScanRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Cursor{it: it, schema: &t.schema}, nil
}

// GetAt fetches the row with the given clustered key as of s.
func (t *Table) GetAt(s *Snapshot, key int64) ([]Value, error) {
	tree, ok := t.treeAt(s)
	if !ok {
		return nil, fmt.Errorf("%w: %d", btree.ErrNotFound, key)
	}
	raw, err := tree.Get(key)
	if err != nil {
		return nil, err
	}
	return decodeAll(&t.schema, raw)
}

// RowsAt returns the committed row count as of s.
func (t *Table) RowsAt(s *Snapshot) int64 {
	st, _ := s.cat.state(t)
	return int64(st.count)
}

// KeyBoundsAt returns the clustered-key bounds as of s; ok is false for
// an empty (or not yet existing) table.
func (t *Table) KeyBoundsAt(s *Snapshot) (min, max int64, ok bool, err error) {
	tree, tok := t.treeAt(s)
	if !tok {
		return 0, 0, false, nil
	}
	return tree.Bounds()
}

// StatsAt returns the table's storage footprint as of s. The leaf count
// walks the snapshot's leaf chain, so a concurrent writer splitting
// pages does not skew it.
func (t *Table) StatsAt(s *Snapshot) (TableStats, error) {
	st, ok := s.cat.state(t)
	if !ok {
		return TableStats{}, nil
	}
	leaves, err := btree.OpenFetch(s.ps, st.root, st.height, st.count).LeafPageCount()
	if err != nil {
		return TableStats{}, err
	}
	return TableStats{
		Rows:       int64(st.count),
		RowBytes:   st.rowBytes,
		BlobBytes:  st.blobBytes,
		LeafPages:  leaves,
		TreeHeight: st.height,
	}, nil
}
