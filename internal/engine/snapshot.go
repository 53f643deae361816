// Snapshot reads: the engine half of MVCC.
//
// A Snapshot freezes the database at a commit tag. Page content is
// resolved by the buffer pool's version store (pages.Snapshot); table
// identity — which B+tree root, how many rows — is resolved here, by a
// per-table list of committed catalog versions (tableMeta) that Commit
// appends to atomically with the page publish. Together they give a
// scan a consistent view: the tree it descends and every page it reads
// belong to the same commit, no matter how many commits land while the
// scan streams.
//
// Readers never take a table latch. Writers (always under the
// database's single-writer lock) copy-on-write every page they touch
// and publish at commit; scans opened before the commit keep reading
// the superseded versions until they Release.
package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
)

// Snapshot is a frozen, immutable read view of the whole database as of
// a commit. It is safe for concurrent use by parallel scan workers and
// must be Released exactly like a pin: the buffer pool retains every
// superseded page version some live snapshot might still need.
// Release is idempotent.
type Snapshot struct {
	db       *DB
	ps       *pages.Snapshot
	blobs    *blob.Store
	released atomic.Bool
}

// Snapshot opens a read view at the current commit clock. Writers never
// wait for it, and it never observes their uncommitted or later work.
func (db *DB) Snapshot() *Snapshot {
	ps := db.bp.AcquireSnapshot()
	db.m.snapshots.Inc()
	return &Snapshot{db: db, ps: ps, blobs: db.blobs.WithFetcher(ps)}
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

// tableMeta is one committed version of a table's catalog state: the
// tree attachment plus the derived counters, stamped with the commit
// tag that published it. Snapshot reads resolve the newest version at
// or before their tag; none visible means the table did not exist yet
// in that view.
type tableMeta struct {
	tag       uint64
	root      pages.PageID
	height    int
	count     int // rows, as the tree counts them
	rowBytes  int64
	blobBytes int64
}

// currentMeta captures the table's live state under the given tag.
// Only the single writer calls this (its fields are in flux otherwise).
func (t *Table) currentMeta(tag uint64) tableMeta {
	return tableMeta{
		tag:       tag,
		root:      t.tree.Root(),
		height:    t.tree.Height(),
		count:     t.tree.Len(),
		rowBytes:  t.rowBytes.Load(),
		blobBytes: t.blobBytes.Load(),
	}
}

// publishMeta appends the committed version tagged tag and prunes
// versions no reader can resolve anymore. A version is dead once a
// newer one is visible to every snapshot that is open or can still
// open: at or below the oldest active snapshot's tag and at or below
// the commit clock. The clock matters because tag is not visible yet —
// FinishPublish advances the clock only after every touched table has
// published — so a snapshot opening in that window must still find the
// predecessor (with no snapshot open the oldest-active tag is ∞, and
// pruning on it alone left such a reader an empty table).
func (t *Table) publishMeta(tag uint64) {
	m := t.currentMeta(tag)
	floor := min(t.db.bp.MinSnapshotTag(), t.db.bp.CommitTag())
	t.metaMu.Lock()
	t.metas = append(t.metas, m)
	from := 0
	for i := len(t.metas) - 1; i >= 0; i-- {
		if t.metas[i].tag <= floor {
			from = i
			break
		}
	}
	if from > 0 {
		t.metas = append(t.metas[:0], t.metas[from:]...)
	}
	t.metaMu.Unlock()
}

// restoreMeta resets the table's live state to its newest committed
// version — the abort path. A table with no committed version was
// created by the aborted session; the caller drops it from the catalog.
func (t *Table) restoreMeta() {
	t.metaMu.Lock()
	n := len(t.metas)
	var m tableMeta
	if n > 0 {
		m = t.metas[n-1]
	}
	t.metaMu.Unlock()
	if n == 0 {
		return
	}
	t.tree = btree.Open(t.db.bp, m.root, m.height, m.count)
	t.rowBytes.Store(m.rowBytes)
	t.blobBytes.Store(m.blobBytes)
}

// metaAt resolves the newest committed version visible at tag.
func (t *Table) metaAt(tag uint64) (tableMeta, bool) {
	t.metaMu.Lock()
	defer t.metaMu.Unlock()
	return t.metaAtLocked(tag)
}

func (t *Table) metaAtLocked(tag uint64) (tableMeta, bool) {
	for i := len(t.metas) - 1; i >= 0; i-- {
		if t.metas[i].tag <= tag {
			return t.metas[i], true
		}
	}
	return tableMeta{}, false
}

// treeAt opens the table's B+tree as the snapshot sees it. ok is false
// when the table has no committed version at the snapshot's tag (it was
// created after the snapshot opened).
func (t *Table) treeAt(s *Snapshot) (*btree.Tree, bool) {
	m, ok := t.metaAt(s.ps.Tag())
	if !ok {
		return nil, false
	}
	return btree.OpenFetch(s.ps, m.root, m.height, m.count), true
}

// CursorAt opens a streaming scan of the whole table as of s. The
// cursor does not own the snapshot; the caller Releases s after closing
// every cursor opened on it.
func (t *Table) CursorAt(s *Snapshot) (*Cursor, error) {
	return t.CursorRangeAt(s, math.MinInt64, math.MaxInt64)
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
	return t.decodeAll(raw)
}

// RowsAt returns the committed row count as of s.
func (t *Table) RowsAt(s *Snapshot) int64 {
	m, ok := t.metaAt(s.ps.Tag())
	if !ok {
		return 0
	}
	return int64(m.count)
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
	m, ok := t.metaAt(s.ps.Tag())
	if !ok {
		return TableStats{}, nil
	}
	tree := btree.OpenFetch(s.ps, m.root, m.height, m.count)
	leaves, err := tree.LeafPageCount()
	if err != nil {
		return TableStats{}, err
	}
	return TableStats{
		Rows:       int64(m.count),
		RowBytes:   m.rowBytes,
		BlobBytes:  m.blobBytes,
		LeafPages:  leaves,
		TreeHeight: m.height,
	}, nil
}
