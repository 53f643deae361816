package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sqlarray/internal/pages"
)

// perPage returns how many records of recSize bytes one empty page of
// type typ holds.
func perPage(t *testing.T, typ pages.PageType, recSize int) int {
	t.Helper()
	var p pages.Page
	p.Init(typ)
	rec := make([]byte, recSize)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if !errors.Is(err, pages.ErrPageFull) {
				t.Fatal(err)
			}
			return n
		}
		n++
	}
}

// levelSlots returns the slot count of every node per level, root level
// first, left to right.
func levelSlots(t *testing.T, tr *Tree) [][]int {
	t.Helper()
	ids := []pages.PageID{tr.root}
	var out [][]int
	for level := tr.height; level >= 1; level-- {
		var slots []int
		var next []pages.PageID
		for _, id := range ids {
			f, err := tr.bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			n := f.Page.NumSlots()
			slots = append(slots, n)
			for i := 0; level > 1 && i < n; i++ {
				rec, err := f.Page.Record(i)
				if err != nil {
					tr.bp.Unpin(f, false)
					t.Fatalf("internal node %d slot %d: %v", id, i, err)
				}
				_, child := decodeInternalRec(rec)
				next = append(next, child)
			}
			tr.bp.Unpin(f, false)
		}
		out = append(out, slots)
		ids = next
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TestAscendingInsertsFillEveryNode: inserting equal-size records in key
// order splits each full node at its end, so the tree comes out as dense
// as a bulk load — ceil(n/perLeaf) leaves, and every node but the
// rightmost on each level holds as many entries as fit.
func TestAscendingInsertsFillEveryNode(t *testing.T) {
	tr := newTestTree(t, 256)
	// 200-byte values: ~38 per leaf, so the leaf level outgrows one
	// internal node and the internal level splits too.
	const n = 30000
	v := make([]byte, 200)
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	perLeaf := perPage(t, pages.TypeData, 8+len(v))
	perNode := perPage(t, pages.TypeIndex, internalRecSize)
	levels := levelSlots(t, tr)
	if len(levels) < 3 {
		t.Fatalf("height %d: the test needs internal-node splits", len(levels))
	}
	leaves := levels[len(levels)-1]
	if got, want := len(leaves), ceilDiv(n, perLeaf); got != want {
		t.Fatalf("%d leaves, want ceil(%d/%d) = %d", got, n, perLeaf, want)
	}
	for depth, slots := range levels {
		full := perNode
		if depth == len(levels)-1 {
			full = perLeaf
		}
		for i, s := range slots[:len(slots)-1] {
			if s != full {
				t.Fatalf("level %d node %d holds %d entries, want %d", len(levels)-depth, i, s, full)
			}
		}
	}
	if got, err := tr.LeafPageCount(); err != nil || got != len(leaves) {
		t.Fatalf("LeafPageCount = %d, %v; want %d", got, err, len(leaves))
	}
}

// TestOutOfOrderInsertsSplitInTheMiddle: only a key past the end of a
// full node splits it at the end. Descending and shuffled loads split in
// the middle, leaving leaves about half (descending) or two-thirds
// (shuffled) full, so a later insert into any leaf finds room.
func TestOutOfOrderInsertsSplitInTheMiddle(t *testing.T) {
	const n = 20000
	perLeaf := perPage(t, pages.TypeData, 8+len(val(0)))
	dense := ceilDiv(n, perLeaf)
	for _, c := range []struct {
		name    string
		keys    []int
		minMore float64 // leaves at least this multiple of the dense count
	}{
		{"descending", descending(n), 1.8},
		{"shuffled", rand.New(rand.NewSource(3)).Perm(n), 1.2},
	} {
		tr := newTestTree(t, 256)
		for _, k := range c.keys {
			if err := tr.Insert(int64(k), val(int64(k))); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tr.LeafPageCount()
		if err != nil {
			t.Fatal(err)
		}
		if float64(got) < c.minMore*float64(dense) {
			t.Errorf("%s: %d leaves, want >= %.1f x %d (middle splits)", c.name, got, c.minMore, dense)
		}
	}
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func descending(n int) []int {
	out := ascending(n)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// TestInsertOrdersMatchMapModel drives each insert order, mixed with
// deletes, against a map and checks every read path: Get, forward scans,
// the leaf chain walked both ways with Prev/Next symmetric, Bounds and
// Len.
func TestInsertOrdersMatchMapModel(t *testing.T) {
	const n = 12000
	gaps := make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		gaps = append(gaps, 3*i) // ascending with gaps ...
	}
	for i := 0; len(gaps) < n; i++ {
		gaps = append(gaps, 3*i+1) // ... then into them, ascending again
	}
	orders := []struct {
		name string
		keys []int
	}{
		{"ascending", ascending(n)},
		{"descending", descending(n)},
		{"shuffled", rand.New(rand.NewSource(7)).Perm(n)},
		{"ascending-gaps", gaps},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(o.name))))
			tr := newTestTree(t, 256)
			model := map[int64][]byte{}
			for i, k := range o.keys {
				key := int64(k)
				v := []byte(fmt.Sprintf("%s-%d", o.name, k))
				if err := tr.Insert(key, v); err != nil {
					t.Fatalf("Insert %d: %v", key, err)
				}
				model[key] = v
				// Every 5th step deletes a random earlier key, so splits
				// also see leaves with freed space.
				if i%5 == 4 {
					victim := int64(o.keys[rng.Intn(i+1)])
					if _, ok := model[victim]; ok {
						if err := tr.Delete(victim); err != nil {
							t.Fatalf("Delete %d: %v", victim, err)
						}
						delete(model, victim)
					}
				}
			}
			checkModel(t, tr, model)
		})
	}
}

// checkModel asserts tr holds exactly model.
func checkModel(t *testing.T, tr *Tree, model map[int64][]byte) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(model))
	}
	keys := make([]int64, 0, len(model))
	for k, v := range model {
		keys = append(keys, k)
		got, err := tr.Get(k)
		if err != nil || string(got) != string(v) {
			t.Fatalf("Get %d = %q, %v; want %q", k, got, err, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Next() {
		if i >= len(keys) || it.Key() != keys[i] || string(it.Value()) != string(model[keys[i]]) {
			it.Close()
			t.Fatalf("forward scan position %d: key %d", i, it.Key())
		}
		i++
	}
	it.Close()
	if it.Err() != nil || i != len(keys) {
		t.Fatalf("forward scan: %d keys, want %d (%v)", i, len(keys), it.Err())
	}

	fwd, bwd := walkChain(t, tr)
	if len(fwd) != len(keys) {
		t.Fatalf("Next chain holds %d keys, want %d", len(fwd), len(keys))
	}
	for i, k := range keys {
		if fwd[i] != k || bwd[len(bwd)-1-i] != k {
			t.Fatalf("chain position %d: forward %d, backward %d, want %d", i, fwd[i], bwd[len(bwd)-1-i], k)
		}
	}

	lo, hi, ok, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		if ok {
			t.Fatal("Bounds ok on an empty tree")
		}
	} else if !ok || lo != keys[0] || hi != keys[len(keys)-1] {
		t.Fatalf("Bounds = [%d, %d] %v, want [%d, %d]", lo, hi, ok, keys[0], keys[len(keys)-1])
	}
	if got := tr.bp.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames = %d", got)
	}
}

// walkChain reads the keys of every leaf along the Next chain from the
// leftmost leaf (fwd, ascending) and along the Prev chain back from the
// last leaf reached (bwd, descending), checking that each link is
// answered by its reverse.
func walkChain(t *testing.T, tr *Tree) (fwd, bwd []int64) {
	t.Helper()
	leafKeys := func(p *pages.Page) []int64 {
		var out []int64
		for s := 0; s < p.NumSlots(); s++ {
			if rec, err := p.Record(s); err == nil {
				out = append(out, leafKey(rec))
			}
		}
		return out
	}
	id, err := tr.leftmostLeaf()
	if err != nil {
		t.Fatal(err)
	}
	prev, last := pages.InvalidPageID, pages.InvalidPageID
	for id != pages.InvalidPageID {
		f, err := tr.bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Page.Prev() != prev {
			tr.bp.Unpin(f, false)
			t.Fatalf("leaf %d: Prev = %d, want %d", id, f.Page.Prev(), prev)
		}
		fwd = append(fwd, leafKeys(&f.Page)...)
		prev, last, id = id, id, f.Page.Next()
		tr.bp.Unpin(f, false)
	}
	if rightmost, err := tr.rightmostNodeAt(1); err != nil || rightmost != last {
		t.Fatalf("Next chain ends at %d, right spine at %d (%v)", last, rightmost, err)
	}
	for id = last; id != pages.InvalidPageID; {
		f, err := tr.bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		ks := leafKeys(&f.Page)
		for i := len(ks) - 1; i >= 0; i-- {
			bwd = append(bwd, ks[i])
		}
		id = f.Page.Prev()
		tr.bp.Unpin(f, false)
	}
	return fwd, bwd
}

// TestBulkLoadStartsInEmptyRoot: a LeafWriter over a tree with no rows
// packs its first leaf into the empty root leaf instead of chaining
// fresh leaves after it, so the tree has exactly the leaves written. Over
// a tree with rows it chains after the rightmost leaf.
func TestBulkLoadStartsInEmptyRoot(t *testing.T) {
	for _, n := range []int{1, 50, 5000} {
		tr := newTestTree(t, 256)
		root := tr.Root()
		model := map[int64][]byte{}
		written := bulk(t, tr, 0, n, model)
		if got, err := tr.LeafPageCount(); err != nil || got != written {
			t.Fatalf("n=%d: LeafPageCount = %d, %v; want the %d leaves written", n, got, err, written)
		}
		if first, err := tr.leftmostLeaf(); err != nil || first != root {
			t.Fatalf("n=%d: first leaf %d, want the old root %d (%v)", n, first, root, err)
		}
		checkModel(t, tr, model)

		before, err := tr.LeafPageCount()
		if err != nil {
			t.Fatal(err)
		}
		written = bulk(t, tr, n, 2*n, model)
		if got, err := tr.LeafPageCount(); err != nil || got != before+written {
			t.Fatalf("n=%d: append LeafPageCount = %d, %v; want %d + %d", n, got, err, before, written)
		}
		checkModel(t, tr, model)
	}
}

// bulk loads keys [from, to) through a LeafWriter and GraftAppend,
// recording them in model, and returns the number of leaves written.
func bulk(t *testing.T, tr *Tree, from, to int, model map[int64][]byte) int {
	t.Helper()
	w, err := tr.NewLeafWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(from); k < int64(to); k++ {
		if err := w.Add(k, val(k)); err != nil {
			t.Fatal(err)
		}
		model[k] = val(k)
	}
	n, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.GraftAppend(w); err != nil {
		t.Fatal(err)
	}
	return n
}
