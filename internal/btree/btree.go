// Package btree implements the clustered B+tree that backs sqlarray
// engine tables: 64-bit keys mapping to variable-length row images,
// stored on 8 kB pages, with leaf pages chained for ordered scans —
// the "clustered index scan" access path of the paper's Table 1 queries.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sqlarray/internal/pages"
)

// Errors returned by the B-tree.
var (
	ErrNotFound  = errors.New("btree: key not found")
	ErrDuplicate = errors.New("btree: duplicate key")
	errTooBig    = errors.New("btree: value too large for a page")
)

// MaxValueSize is the largest value insertable (key + value must fit a
// page record).
const MaxValueSize = pages.MaxRecordSize - 8

// Tree is a clustered B+tree over a buffer pool. It is not safe for
// concurrent mutation; the engine serializes writers per table.
//
// Read descents go through fx, which is the pool itself for writer
// trees and a pages.Snapshot for frozen read views (see OpenFetch).
// Mutations always go through bp and are only legal on writer trees.
type Tree struct {
	bp   *pages.BufferPool
	fx   pages.Fetcher
	root pages.PageID
	// height counts levels (1 = root is a leaf).
	height int
	count  int
	// rec is the writer's leaf-record buffer, reused by every insert
	// and overwrite: a page copies the record in, so none outlives the
	// call.
	rec []byte
}

// internal node records: 8-byte separator key + 4-byte child page id.
// Record i covers keys >= key_i (record 0's key is the subtree minimum).
const internalRecSize = 12

// New creates an empty tree whose pages are allocated from bp.
func New(bp *pages.BufferPool) (*Tree, error) {
	f, err := bp.NewPage(pages.TypeData)
	if err != nil {
		return nil, err
	}
	root := f.Page.ID
	bp.Unpin(f, true)
	return &Tree{bp: bp, fx: bp, root: root, height: 1}, nil
}

// Open attaches to an existing tree given its root page. The caller
// supplies the persisted height and count (the engine catalog stores
// them).
func Open(bp *pages.BufferPool, root pages.PageID, height, count int) *Tree {
	return &Tree{bp: bp, fx: bp, root: root, height: height, count: count}
}

// OpenFetch attaches a read-only tree whose page fetches resolve
// through fx — typically a pages.Snapshot, giving a scan a frozen view
// of the tree as of a commit. Mutating a tree opened this way is a
// programming error (there is no pool to allocate from).
func OpenFetch(fx pages.Fetcher, root pages.PageID, height, count int) *Tree {
	return &Tree{fx: fx, root: root, height: height, count: count}
}

// Root returns the current root page id (it changes on root splits).
func (t *Tree) Root() pages.PageID { return t.root }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.count }

func leafKey(rec []byte) int64 {
	return int64(binary.LittleEndian.Uint64(rec))
}

// appendLeafRec appends the leaf record of (key, val) to dst.
func appendLeafRec(dst []byte, key int64, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(key))
	return append(dst, val...)
}

func encodeInternalRec(key int64, child pages.PageID) []byte {
	var rec [internalRecSize]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(key))
	binary.LittleEndian.PutUint32(rec[8:], uint32(child))
	return rec[:]
}

func decodeInternalRec(rec []byte) (int64, pages.PageID) {
	return int64(binary.LittleEndian.Uint64(rec)),
		pages.PageID(binary.LittleEndian.Uint32(rec[8:]))
}

// searchSlot finds the position of key in a node. For leaves it returns
// (slot, true) on an exact match or (insertPos, false). For internal
// nodes it returns the child slot to descend into.
func searchSlot(p *pages.Page, key int64) (int, bool) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		rec, err := p.Record(mid)
		if err != nil {
			// Dense nodes never have dead slots; treat as not found.
			hi = mid
			continue
		}
		k := leafKey(rec) // both node kinds store the key first
		switch {
		case k == key:
			return mid, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childFor picks the internal-node slot whose subtree covers key.
func childFor(p *pages.Page, key int64) int {
	pos, exact := searchSlot(p, key)
	if exact {
		return pos
	}
	if pos == 0 {
		return 0
	}
	return pos - 1
}

// Get returns the value stored for key. The returned slice is a copy.
func (t *Tree) Get(key int64) ([]byte, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return nil, err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.fx.Unpin(f, false)
			return nil, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	f, err := t.fx.Fetch(id)
	if err != nil {
		return nil, err
	}
	defer t.fx.Unpin(f, false)
	slot, ok := searchSlot(&f.Page, key)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	rec, err := f.Page.Record(slot)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rec[8:]...), nil
}

// splitResult carries a completed child split up the recursion.
type splitResult struct {
	split  bool
	sepKey int64
	right  pages.PageID
}

// Insert stores key -> val, failing on duplicates.
func (t *Tree) Insert(key int64, val []byte) error {
	return t.put(key, val, false)
}

// Put stores key -> val, overwriting an existing value.
func (t *Tree) Put(key int64, val []byte) error {
	return t.put(key, val, true)
}

func (t *Tree) put(key int64, val []byte, overwrite bool) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes > %d", errTooBig, len(val), MaxValueSize)
	}
	res, err := t.insertInto(t.root, t.height, key, val, overwrite)
	if err != nil {
		return err
	}
	if res.split {
		// Grow a new root.
		f, err := t.bp.NewPage(pages.TypeIndex)
		if err != nil {
			return err
		}
		// Left entry uses the old root's minimum; any key <= sep works,
		// we use math.MinInt64 semantics via the smallest stored key: the
		// descent only compares >=, so storing the separator of the left
		// subtree as "minimum possible" is simplest.
		if err := f.Page.InsertAt(0, encodeInternalRec(minInt64, t.root)); err != nil {
			t.bp.Unpin(f, true)
			return err
		}
		if err := f.Page.InsertAt(1, encodeInternalRec(res.sepKey, res.right)); err != nil {
			t.bp.Unpin(f, true)
			return err
		}
		t.root = f.Page.ID
		t.height++
		t.bp.Unpin(f, true)
	}
	return nil
}

const minInt64 = -1 << 63

func (t *Tree) insertInto(id pages.PageID, level int, key int64, val []byte, overwrite bool) (splitResult, error) {
	if level == 1 {
		f, err := t.bp.FetchForWrite(id)
		if err != nil {
			return splitResult{}, err
		}
		res, err := t.insertLeaf(f, key, val, overwrite)
		t.bp.Unpin(f, true)
		return res, err
	}
	f, err := t.bp.Fetch(id)
	if err != nil {
		return splitResult{}, err
	}
	slot := childFor(&f.Page, key)
	rec, err := f.Page.Record(slot)
	if err != nil {
		t.bp.Unpin(f, false)
		return splitResult{}, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
	}
	_, child := decodeInternalRec(rec)
	t.bp.Unpin(f, false) // release before recursing; re-fetch if child split

	res, err := t.insertInto(child, level-1, key, val, overwrite)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// Insert the new separator into this node.
	f, err = t.bp.FetchForWrite(id)
	if err != nil {
		return splitResult{}, err
	}
	pos, _ := searchSlot(&f.Page, res.sepKey)
	entry := encodeInternalRec(res.sepKey, res.right)
	if err := f.Page.InsertAt(pos, entry); err == nil {
		t.bp.Unpin(f, true)
		return splitResult{}, nil
	} else if !errors.Is(err, pages.ErrPageFull) {
		t.bp.Unpin(f, false)
		return splitResult{}, err
	}
	// Split this internal node.
	out, err := t.splitNode(f, pages.TypeIndex, pos, res.sepKey)
	if err != nil {
		t.bp.Unpin(f, true)
		return splitResult{}, err
	}
	// Retry the separator insert into the proper half.
	if res.sepKey >= out.sepKey {
		rf, err := t.bp.FetchForWrite(out.right)
		if err != nil {
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
		pos, _ := searchSlot(&rf.Page, res.sepKey)
		if err := rf.Page.InsertAt(pos, entry); err != nil {
			t.bp.Unpin(rf, true)
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
		t.bp.Unpin(rf, true)
	} else {
		pos, _ := searchSlot(&f.Page, res.sepKey)
		if err := f.Page.InsertAt(pos, entry); err != nil {
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
	}
	t.bp.Unpin(f, true)
	return out, nil
}

func (t *Tree) insertLeaf(f *pages.Frame, key int64, val []byte, overwrite bool) (splitResult, error) {
	slot, exact := searchSlot(&f.Page, key)
	if exact && !overwrite {
		return splitResult{}, fmt.Errorf("%w: %d", ErrDuplicate, key)
	}
	t.rec = appendLeafRec(t.rec[:0], key, val)
	rec := t.rec
	if exact {
		if err := f.Page.Update(slot, rec); err == nil {
			return splitResult{}, nil
		} else if !errors.Is(err, pages.ErrPageFull) {
			return splitResult{}, err
		}
		// No room to grow in place: compact and retry once.
		f.Page.Compact()
		if err := f.Page.Update(slot, rec); err == nil {
			return splitResult{}, nil
		}
		// Remove + reinsert through the split path.
		if err := f.Page.RemoveAt(slot); err != nil {
			return splitResult{}, err
		}
		t.count--
	}
	pos, _ := searchSlot(&f.Page, key)
	if err := f.Page.InsertAt(pos, rec); err == nil {
		t.count++
		return splitResult{}, nil
	} else if !errors.Is(err, pages.ErrPageFull) {
		return splitResult{}, err
	}
	f.Page.Compact()
	if err := f.Page.InsertAt(pos, rec); err == nil {
		t.count++
		return splitResult{}, nil
	}
	out, err := t.splitNode(f, pages.TypeData, pos, key)
	if err != nil {
		return splitResult{}, err
	}
	// Insert into the proper half.
	if key >= out.sepKey {
		rf, err := t.bp.FetchForWrite(out.right)
		if err != nil {
			return splitResult{}, err
		}
		pos, _ := searchSlot(&rf.Page, key)
		err = rf.Page.InsertAt(pos, rec)
		t.bp.Unpin(rf, true)
		if err != nil {
			return splitResult{}, err
		}
	} else {
		pos, _ := searchSlot(&f.Page, key)
		if err := f.Page.InsertAt(pos, rec); err != nil {
			return splitResult{}, err
		}
	}
	t.count++
	return out, nil
}

// splitNode makes room in the full node f for a record with key that
// belongs at slot pos, and returns the separator of the fresh right page
// it creates. When the key sorts after every record (pos == NumSlots,
// an ascending load) f keeps all its records and the right page starts
// empty with key as its separator, so key-ordered inserts leave every
// node full. Otherwise the upper half of f moves right. For leaves it
// maintains the sibling chain.
func (t *Tree) splitNode(f *pages.Frame, typ pages.PageType, pos int, key int64) (splitResult, error) {
	rf, err := t.bp.NewPage(typ)
	if err != nil {
		return splitResult{}, err
	}
	n := f.Page.NumSlots()
	half, sepKey := n, key
	if pos < n {
		half = n / 2
		sepRec, err := f.Page.Record(half)
		if err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
		sepKey = leafKey(sepRec)
	}
	// Copy upper records to the right page.
	for i := half; i < n; i++ {
		rec, err := f.Page.Record(i)
		if err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
		if _, err := rf.Page.Insert(rec); err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
	}
	for i := n - 1; i >= half; i-- {
		if err := f.Page.RemoveAt(i); err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
	}
	f.Page.Compact()
	if typ == pages.TypeData {
		rf.Page.SetNext(f.Page.Next())
		rf.Page.SetPrev(f.Page.ID)
		if nxt := f.Page.Next(); nxt != pages.InvalidPageID {
			nf, err := t.bp.FetchForWrite(nxt)
			if err != nil {
				t.bp.Unpin(rf, true)
				return splitResult{}, err
			}
			nf.Page.SetPrev(rf.Page.ID)
			t.bp.Unpin(nf, true)
		}
		f.Page.SetNext(rf.Page.ID)
	}
	right := rf.Page.ID
	t.bp.Unpin(rf, true)
	return splitResult{split: true, sepKey: sepKey, right: right}, nil
}

// Delete removes key, returning ErrNotFound if absent. Nodes are not
// rebalanced (lazy deletion, like many production engines under light
// delete loads); space is reclaimed when pages are compacted on split.
func (t *Tree) Delete(key int64) error {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.bp.Fetch(id)
		if err != nil {
			return err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.bp.Unpin(f, false)
			return fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.bp.Unpin(f, false)
		id = child
	}
	f, err := t.bp.FetchForWrite(id)
	if err != nil {
		return err
	}
	slot, ok := searchSlot(&f.Page, key)
	if !ok {
		t.bp.Unpin(f, false)
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	err = f.Page.RemoveAt(slot)
	t.bp.Unpin(f, true)
	if err == nil {
		t.count--
	}
	return err
}

// LeafPageCount walks the leaf chain and returns the number of leaf
// pages — the clustered index's data footprint.
func (t *Tree) LeafPageCount() (int, error) {
	id, err := t.leftmostLeaf()
	if err != nil {
		return 0, err
	}
	n := 0
	for id != pages.InvalidPageID {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		n++
		next := f.Page.Next()
		t.fx.Unpin(f, false)
		id = next
	}
	return n, nil
}

// leftmostLeaf descends to the first leaf page.
func (t *Tree) leftmostLeaf() (pages.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		rec, err := f.Page.Record(0)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, err
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	return id, nil
}

// Bounds returns the smallest and largest keys currently stored. ok is
// false when the tree is empty. The parallel scan planner uses this to
// partition the key space across workers.
func (t *Tree) Bounds() (min, max int64, ok bool, err error) {
	it, err := t.Scan()
	if err != nil {
		return 0, 0, false, err
	}
	if !it.Next() {
		err := it.Err()
		it.Close()
		return 0, 0, false, err
	}
	min = it.Key()
	it.Close()
	max, ok, err = t.maxKey()
	if err != nil || !ok {
		return 0, 0, false, err
	}
	return min, max, true, nil
}

// maxKey walks to the rightmost leaf (following the prev chain past any
// leaves emptied by lazy deletion) and returns its last live key.
func (t *Tree) maxKey() (int64, bool, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, false, err
		}
		n := f.Page.NumSlots()
		if n == 0 {
			t.fx.Unpin(f, false)
			return 0, false, fmt.Errorf("btree: empty internal node %d", id)
		}
		rec, err := f.Page.Record(n - 1)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, false, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	for id != pages.InvalidPageID {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, false, err
		}
		for slot := f.Page.NumSlots() - 1; slot >= 0; slot-- {
			rec, err := f.Page.Record(slot)
			if err != nil {
				continue // dead slot
			}
			key := leafKey(rec)
			t.fx.Unpin(f, false)
			return key, true, nil
		}
		prev := f.Page.Prev()
		t.fx.Unpin(f, false)
		id = prev
	}
	return 0, false, nil
}

// leafFor descends to the leaf page that would contain key.
func (t *Tree) leafFor(key int64) (pages.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, err
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	return id, nil
}
