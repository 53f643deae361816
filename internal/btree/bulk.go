package btree

import (
	"errors"
	"fmt"

	"sqlarray/internal/pages"
)

// Bulk build: the high-throughput ingest path. A LeafWriter packs a
// strictly-ascending (key, value) stream into freshly allocated leaf
// pages with no per-row root descent, and GraftAppend later hangs the
// finished leaves off an existing tree by extending its right spine —
// the classic sorted-bulk-load split of "write data pages fast, wire
// the index afterwards".
//
// The two halves run under different durability regimes on purpose:
// LeafWriter touches only fresh pages (never shared, committed state),
// so the engine can stream them straight into the WAL and evict them
// long before the commit record exists; GraftAppend mutates shared
// pages and must run under a write capture so those edits stay pinned
// until the commit publishes them.

// LeafRef identifies a completed leaf (or, one level up, an internal
// node) by the minimum key it covers.
type LeafRef struct {
	Key int64
	ID  pages.PageID
}

// LeafWriter streams sorted records into fully packed fresh leaves.
// Completed pages are handed to onPage while still pinned — the engine
// logs the page image there — and then unpinned dirty. The sibling
// chain between fresh leaves (and the Prev link back to prev, the
// tree's current rightmost leaf) is wired as pages complete; only the
// old rightmost leaf's forward pointer is left for GraftAppend.
type LeafWriter struct {
	bp      *pages.BufferPool
	onPage  func(f *pages.Frame) error
	prev    pages.PageID
	cur     *pages.Frame
	curMin  int64
	lastKey int64
	n       int
	leaves  []LeafRef
}

// NewLeafWriter starts a bulk leaf stream. prev is the page the first
// fresh leaf's Prev pointer should name (InvalidPageID for an empty
// tree is fine — the empty root leaf still precedes the fresh chain, so
// pass its id). onPage may be nil.
func NewLeafWriter(bp *pages.BufferPool, prev pages.PageID, onPage func(f *pages.Frame) error) *LeafWriter {
	return &LeafWriter{bp: bp, onPage: onPage, prev: prev}
}

// Add appends one record. Keys must arrive in strictly ascending order.
func (w *LeafWriter) Add(key int64, val []byte) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes > %d", ErrTooBig, len(val), MaxValueSize)
	}
	if w.n > 0 && key <= w.lastKey {
		if key == w.lastKey {
			return fmt.Errorf("%w: %d", ErrDuplicate, key)
		}
		return fmt.Errorf("btree: bulk keys out of order: %d after %d", key, w.lastKey)
	}
	rec := encodeLeafRec(key, val)
	if w.cur == nil {
		f, err := w.bp.NewPage(pages.TypeData)
		if err != nil {
			return err
		}
		f.Page.SetPrev(w.prev)
		w.cur, w.curMin = f, key
	}
	if _, err := w.cur.Page.Insert(rec); err != nil {
		if !errors.Is(err, pages.ErrPageFull) {
			return err
		}
		// Allocate the successor before completing the current leaf so
		// its Next pointer is final when the page image is logged.
		nf, err := w.bp.NewPage(pages.TypeData)
		if err != nil {
			return err
		}
		w.cur.Page.SetNext(nf.Page.ID)
		nf.Page.SetPrev(w.cur.Page.ID)
		if err := w.completeCur(); err != nil {
			w.bp.Unpin(nf, true)
			return err
		}
		w.cur, w.curMin = nf, key
		if _, err := w.cur.Page.Insert(rec); err != nil {
			return err
		}
	}
	w.lastKey = key
	w.n++
	return nil
}

// completeCur logs and unpins the current leaf.
func (w *LeafWriter) completeCur() error {
	f := w.cur
	w.cur = nil
	w.leaves = append(w.leaves, LeafRef{Key: w.curMin, ID: f.Page.ID})
	var err error
	if w.onPage != nil {
		err = w.onPage(f)
	}
	w.prev = f.Page.ID
	w.bp.Unpin(f, true)
	return err
}

// Finish completes the last leaf (its Next stays InvalidPageID) and
// returns the refs of every leaf written, in key order.
func (w *LeafWriter) Finish() ([]LeafRef, error) {
	if w.cur != nil {
		if err := w.completeCur(); err != nil {
			return nil, err
		}
	}
	return w.leaves, nil
}

// Count returns the number of records added so far.
func (w *LeafWriter) Count() int { return w.n }

// Abandon unpins any open page after a failure; the abandoned fresh
// pages are garbage until the next crash-recovery or file compaction,
// never reachable state.
func (w *LeafWriter) Abandon() {
	if w.cur != nil {
		w.bp.Unpin(w.cur, true)
		w.cur = nil
	}
}

// RightmostLeaf returns the page id of the tree's rightmost leaf — the
// root itself at height 1, possibly an empty leaf under lazy deletion.
// The bulk loader chains its fresh leaves after this page and passes it
// to GraftAppend as prevLeaf.
func (t *Tree) RightmostLeaf() (pages.PageID, error) {
	return t.rightmostNodeAt(1)
}

// GraftAppend attaches bulk-written leaves — every key strictly greater
// than the tree's current maximum — to the tree by extending its right
// spine: leaf refs are appended into the existing rightmost internal
// node per level, overflowing into fresh nodes, and levels above the
// old root are built by packing. prevLeaf is the tree's old rightmost
// leaf (the one the first fresh leaf's Prev names); its Next pointer is
// rewired here. added is the number of records the leaves carry.
//
// Must run inside an active write capture: the mutated shared pages
// (right spine, prevLeaf) are copy-on-write versioned for concurrent
// snapshot readers and held until the enclosing commit publishes.
func (t *Tree) GraftAppend(prevLeaf pages.PageID, leaves []LeafRef, added int) error {
	if len(leaves) == 0 {
		return nil
	}
	if prevLeaf != pages.InvalidPageID {
		f, err := t.bp.FetchForWrite(prevLeaf)
		if err != nil {
			return err
		}
		f.Page.SetNext(leaves[0].ID)
		t.bp.Unpin(f, true)
	}
	entries := append([]LeafRef(nil), leaves...)
	for level := 2; len(entries) > 0; level++ {
		if level <= t.height {
			fresh, err := t.appendRightmost(level, entries)
			if err != nil {
				return err
			}
			entries = fresh
			continue
		}
		if level == t.height+1 {
			// First level above the old root: the old root becomes the
			// leftmost child, carrying the root's minInt64 convention.
			entries = append([]LeafRef{{Key: minInt64, ID: t.root}}, entries...)
		}
		nodes, err := t.packLevel(entries)
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.root = nodes[0].ID
			t.height = level
			entries = nil
		} else {
			entries = nodes
		}
	}
	t.count += added
	return nil
}

// appendRightmost appends entries (all keys greater than anything
// stored) to the rightmost internal node at the given level, spilling
// into fresh nodes when it fills. It returns refs for the fresh nodes,
// which need parents one level up.
func (t *Tree) appendRightmost(level int, entries []LeafRef) ([]LeafRef, error) {
	id, err := t.rightmostNodeAt(level)
	if err != nil {
		return nil, err
	}
	f, err := t.bp.FetchForWrite(id)
	if err != nil {
		return nil, err
	}
	var fresh []LeafRef
	for _, e := range entries {
		rec := encodeInternalRec(e.Key, e.ID)
		if _, err := f.Page.Insert(rec); err == nil {
			continue
		} else if !errors.Is(err, pages.ErrPageFull) {
			t.bp.Unpin(f, true)
			return nil, err
		}
		nf, err := t.bp.NewPage(pages.TypeIndex)
		if err != nil {
			t.bp.Unpin(f, true)
			return nil, err
		}
		t.bp.Unpin(f, true)
		f = nf
		fresh = append(fresh, LeafRef{Key: e.Key, ID: f.Page.ID})
		if _, err := f.Page.Insert(rec); err != nil {
			t.bp.Unpin(f, true)
			return nil, err
		}
	}
	t.bp.Unpin(f, true)
	return fresh, nil
}

// rightmostNodeAt descends the right spine to the internal node at the
// given level (leaves are level 1, the root is level t.height).
func (t *Tree) rightmostNodeAt(level int) (pages.PageID, error) {
	id := t.root
	for lvl := t.height; lvl > level; lvl-- {
		f, err := t.bp.Fetch(id)
		if err != nil {
			return 0, err
		}
		n := f.Page.NumSlots()
		if n == 0 {
			t.bp.Unpin(f, false)
			return 0, fmt.Errorf("btree: empty internal node %d", id)
		}
		rec, err := f.Page.Record(n - 1)
		if err != nil {
			t.bp.Unpin(f, false)
			return 0, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.bp.Unpin(f, false)
		id = child
	}
	return id, nil
}

// packLevel packs entries into freshly allocated internal nodes,
// returning one ref per node created.
func (t *Tree) packLevel(entries []LeafRef) ([]LeafRef, error) {
	var nodes []LeafRef
	var f *pages.Frame
	for _, e := range entries {
		rec := encodeInternalRec(e.Key, e.ID)
		if f == nil {
			nf, err := t.bp.NewPage(pages.TypeIndex)
			if err != nil {
				return nil, err
			}
			f = nf
			nodes = append(nodes, LeafRef{Key: e.Key, ID: f.Page.ID})
		}
		if _, err := f.Page.Insert(rec); err != nil {
			if !errors.Is(err, pages.ErrPageFull) {
				t.bp.Unpin(f, true)
				return nil, err
			}
			t.bp.Unpin(f, true)
			nf, err := t.bp.NewPage(pages.TypeIndex)
			if err != nil {
				return nil, err
			}
			f = nf
			nodes = append(nodes, LeafRef{Key: e.Key, ID: f.Page.ID})
			if _, err := f.Page.Insert(rec); err != nil {
				t.bp.Unpin(f, true)
				return nil, err
			}
		}
	}
	if f != nil {
		t.bp.Unpin(f, true)
	}
	return nodes, nil
}
