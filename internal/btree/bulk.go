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
// LeafWriter touches only fresh pages and private images (never shared,
// committed state), so the engine can stream them straight into the WAL
// and evict them long before the commit record exists; GraftAppend
// mutates shared pages and must run under a write capture so those
// edits stay pinned until the commit publishes them.

// leafRef identifies a completed leaf (or, one level up, an internal
// node) by the minimum key it covers.
type leafRef struct {
	key int64
	id  pages.PageID
}

// LeafWriter streams sorted records into fully packed leaves. Completed
// fresh pages are handed to onPage while still pinned — the engine logs
// the page image there — and then unpinned dirty. The sibling chain
// between fresh leaves (and the Prev link back to the tree's rightmost
// leaf) is wired as pages complete; only the old rightmost leaf's
// forward pointer is left for GraftAppend.
//
// Into a tree that holds no rows the stream starts in the empty root
// leaf rather than after it. That page is shared, committed state, so
// its first leaf is packed into a private image (head) that GraftAppend
// installs under the write capture.
type LeafWriter struct {
	bp      *pages.BufferPool
	onPage  func(f *pages.Frame) error
	tail    pages.PageID // the tree's rightmost leaf when the stream began
	head    *pages.Page  // the root leaf's new image; nil unless the tree was empty
	cur     *pages.Page  // the leaf being filled: head or curF's page
	curF    *pages.Frame // nil while cur is head
	curMin  int64
	lastKey int64
	n       int
	leaves  []leafRef
	rec     []byte // the record being added; reused by every Add
}

// NewLeafWriter starts a bulk leaf stream that GraftAppend later
// attaches to t. onPage may be nil.
func (t *Tree) NewLeafWriter(onPage func(f *pages.Frame) error) (*LeafWriter, error) {
	tail, err := t.rightmostNodeAt(1)
	if err != nil {
		return nil, err
	}
	w := &LeafWriter{bp: t.bp, onPage: onPage, tail: tail}
	if t.height == 1 && t.count == 0 {
		w.head = &pages.Page{ID: tail}
		w.head.Init(pages.TypeData)
	}
	return w, nil
}

// Add appends one record. Keys must arrive in strictly ascending order.
func (w *LeafWriter) Add(key int64, val []byte) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes > %d", errTooBig, len(val), MaxValueSize)
	}
	if w.n > 0 && key <= w.lastKey {
		if key == w.lastKey {
			return fmt.Errorf("%w: %d", ErrDuplicate, key)
		}
		return fmt.Errorf("btree: bulk keys out of order: %d after %d", key, w.lastKey)
	}
	w.rec = appendLeafRec(w.rec[:0], key, val)
	rec := w.rec
	if w.cur == nil {
		if w.head != nil {
			w.cur = w.head
		} else {
			f, err := w.bp.NewPage(pages.TypeData)
			if err != nil {
				return err
			}
			f.Page.SetPrev(w.tail)
			w.cur, w.curF = &f.Page, f
		}
		w.curMin = key
	}
	if _, err := w.cur.Insert(rec); err != nil {
		if !errors.Is(err, pages.ErrPageFull) {
			return err
		}
		// Allocate the successor before completing the current leaf so
		// its Next pointer is final when the page image is logged.
		nf, err := w.bp.NewPage(pages.TypeData)
		if err != nil {
			return err
		}
		w.cur.SetNext(nf.Page.ID)
		nf.Page.SetPrev(w.cur.ID)
		if err := w.completeCur(); err != nil {
			w.bp.Unpin(nf, true)
			return err
		}
		w.cur, w.curF, w.curMin = &nf.Page, nf, key
		if _, err := w.cur.Insert(rec); err != nil {
			return err
		}
	}
	w.lastKey = key
	w.n++
	return nil
}

// completeCur logs and unpins the current leaf. The head is not a pool
// frame: the commit that installs it logs it.
func (w *LeafWriter) completeCur() error {
	w.leaves = append(w.leaves, leafRef{key: w.curMin, id: w.cur.ID})
	f := w.curF
	w.cur, w.curF = nil, nil
	if f == nil {
		return nil
	}
	var err error
	if w.onPage != nil {
		err = w.onPage(f)
	}
	w.bp.Unpin(f, true)
	return err
}

// Finish completes the last leaf (its Next stays InvalidPageID) and
// returns the number of leaves written.
func (w *LeafWriter) Finish() (int, error) {
	if w.cur != nil {
		if err := w.completeCur(); err != nil {
			return 0, err
		}
	}
	return len(w.leaves), nil
}

// Abandon unpins any open page after a failure; the abandoned fresh
// pages are garbage until the next crash-recovery or file compaction,
// never reachable state.
func (w *LeafWriter) Abandon() {
	if w.curF != nil {
		w.bp.Unpin(w.curF, true)
	}
	w.cur, w.curF = nil, nil
}

// GraftAppend attaches the leaves of a finished LeafWriter — every key
// strictly greater than the tree's current maximum — to the tree by
// extending its right spine: leaf refs are appended into the existing
// rightmost internal node per level, overflowing into fresh nodes, and
// levels above the old root are built by packing. The old rightmost
// leaf's Next pointer is rewired here, or, when the stream started in an
// empty root leaf, the head image is installed there.
//
// Must run inside an active write capture: the mutated shared pages
// (right spine, old rightmost leaf) are copy-on-write versioned for
// concurrent snapshot readers and held until the enclosing commit
// publishes.
func (t *Tree) GraftAppend(w *LeafWriter) error {
	if len(w.leaves) == 0 {
		return nil
	}
	f, err := t.bp.FetchForWrite(w.tail)
	if err != nil {
		return err
	}
	entries := w.leaves
	if w.head != nil {
		copy(f.Page.Buf[:], w.head.Buf[:]) // memmove, not REP MOVSQ
		entries = entries[1:]
	} else {
		f.Page.SetNext(entries[0].id)
	}
	t.bp.Unpin(f, true)
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
			entries = append([]leafRef{{key: minInt64, id: t.root}}, entries...)
		}
		nodes, err := t.packLevel(entries)
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.root = nodes[0].id
			t.height = level
			entries = nil
		} else {
			entries = nodes
		}
	}
	t.count += w.n
	return nil
}

// appendRightmost appends entries (all keys greater than anything
// stored) to the rightmost internal node at the given level, spilling
// into fresh nodes when it fills. It returns refs for the fresh nodes,
// which need parents one level up.
func (t *Tree) appendRightmost(level int, entries []leafRef) ([]leafRef, error) {
	id, err := t.rightmostNodeAt(level)
	if err != nil {
		return nil, err
	}
	f, err := t.bp.FetchForWrite(id)
	if err != nil {
		return nil, err
	}
	var fresh []leafRef
	for _, e := range entries {
		rec := encodeInternalRec(e.key, e.id)
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
		fresh = append(fresh, leafRef{key: e.key, id: f.Page.ID})
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
func (t *Tree) packLevel(entries []leafRef) ([]leafRef, error) {
	var nodes []leafRef
	var f *pages.Frame
	for _, e := range entries {
		rec := encodeInternalRec(e.key, e.id)
		if f == nil {
			nf, err := t.bp.NewPage(pages.TypeIndex)
			if err != nil {
				return nil, err
			}
			f = nf
			nodes = append(nodes, leafRef{key: e.key, id: f.Page.ID})
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
			nodes = append(nodes, leafRef{key: e.key, id: f.Page.ID})
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
