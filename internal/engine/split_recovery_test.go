package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// padSchema is (id BIGINT, pad VARBINARY): ~1 kB rows, about seven to a
// leaf, so a few thousand ascending keys split internal nodes too.
func padSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "pad", Type: ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func padRow(k int64) []Value {
	pad := make([]byte, 1000)
	binary.LittleEndian.PutUint64(pad, uint64(k))
	return []Value{IntValue(k), BinaryValue(pad)}
}

// commitRows inserts keys [from, to) in ascending order in one write
// session and commits it.
func commitRows(t *testing.T, db *DB, tbl *Table, from, to int64) {
	t.Helper()
	err := inTx(db, func(tx *Tx) error {
		for k := from; k < to; k++ {
			if err := tbl.InsertTx(tx, padRow(k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("insert [%d, %d): %v", from, to, err)
	}
}

// checkPadRows asserts table "t" holds exactly keys [0, n) with their
// pads, that its leaf chain links both ways, and that nothing is pinned.
func checkPadRows(t *testing.T, db *DB, n int64) *Table {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != n {
		t.Fatalf("rows = %d, want %d", got, n)
	}
	want := int64(0)
	err = scanRows(tbl, func(key int64, row []Value) (bool, error) {
		v := row[1]
		if key != want || binary.LittleEndian.Uint64(v.B) != uint64(key) {
			t.Fatalf("scan position %d: key %d", want, key)
		}
		want++
		return true, nil
	})
	if err != nil || want != n {
		t.Fatalf("scanned %d rows, want %d (%v)", want, n, err)
	}
	if _, err := tbl.Get(n); !errors.Is(err, btree.ErrNotFound) {
		t.Fatalf("key %d past the committed rows: %v", n, err)
	}
	st, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := walkLeafChain(t, db, tbl); got != st.LeafPages {
		t.Fatalf("leaf chain holds %d leaves, Stats %d", got, st.LeafPages)
	}
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
	return tbl
}

// walkLeafChain follows the live tree's leaf chain forward from its
// leftmost leaf and back from the last one, failing unless every Next
// is answered by a Prev, and returns the number of leaves.
func walkLeafChain(t *testing.T, db *DB, tbl *Table) int {
	t.Helper()
	fetch := func(id pages.PageID) pages.Page {
		f, err := db.Pool().Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p := f.Page
		db.Pool().Unpin(f, false)
		return p
	}
	id := tbl.tree.Root()
	for level := tbl.tree.Height(); level > 1; level-- {
		p := fetch(id)
		rec, err := p.Record(0)
		if err != nil {
			t.Fatal(err)
		}
		id = pages.PageID(binary.LittleEndian.Uint32(rec[8:])) // internal record: key, child
	}
	var fwd []pages.PageID
	for prev := pages.InvalidPageID; id != pages.InvalidPageID; {
		p := fetch(id)
		if p.Prev() != prev {
			t.Fatalf("leaf %d: Prev = %d, want %d", id, p.Prev(), prev)
		}
		fwd = append(fwd, id)
		prev, id = id, p.Next()
	}
	i := len(fwd) - 1
	for id = fwd[i]; id != pages.InvalidPageID; i-- {
		if i < 0 || fwd[i] != id {
			t.Fatalf("Prev chain reaches leaf %d out of step with the Next chain", id)
		}
		p := fetch(id)
		id = p.Prev()
	}
	if i != -1 {
		t.Fatalf("Prev chain stops %d leaves short of the first", i+1)
	}
	return len(fwd)
}

// TestRecoverAcrossEndOfNodeSplits: ascending inserts split full leaves
// and internal nodes at their end. Sessions of such inserts commit while
// a snapshot taken after the first one stays open, and that snapshot
// keeps reading its own cut. A crash with a session in flight recovers
// exactly the committed rows; a crash right after the next commit keeps
// all of them. Both times the leaf chain must link both ways.
func TestRecoverAcrossEndOfNodeSplits(t *testing.T) {
	disk := newCrashDisk()
	st := wal.NewMemStorage()
	db := openDB(t, disk, st)
	tbl, err := db.CreateTable("t", padSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const cut, step = 100, 200
	commitRows(t, db, tbl, 0, cut)
	snap := db.Snapshot()
	readCut := func() {
		t.Helper()
		if got := tbl.RowsAt(snap); got != cut {
			t.Fatalf("held snapshot sees %d rows, want %d", got, cut)
		}
		cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		for cur.Next() {
			if cur.Key() != n {
				t.Fatalf("held snapshot: key %d at %d", cur.Key(), n)
			}
			n++
		}
		cur.Close()
		if err := cur.Err(); err != nil || n != cut {
			t.Fatalf("held snapshot scanned %d rows, want %d (%v)", n, cut, err)
		}
	}

	// Commit sessions until the next one would split the root internal
	// node; track that with the live tree's height.
	committed := int64(cut)
	for tbl.tree.Height() < 2 || committed < 3000 {
		commitRows(t, db, tbl, committed, committed+step)
		committed += step
		readCut()
	}
	h := tbl.tree.Height()
	if h != 2 {
		t.Fatalf("height %d after %d rows, want 2: resize the sessions", h, committed)
	}

	// In flight: keep inserting until an internal node has split at its
	// end (the tree grew a level), then crash before the commit.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	next := committed
	for ; tbl.tree.Height() == h; next++ {
		if err := tbl.InsertTx(tx, padRow(next)); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d rows committed at height %d; key %d grew a level in flight", committed, h, next-1)
	readCut()
	snap.Release()
	st.Crash()
	disk.Crash()

	db = openDB(t, disk, st)
	tbl = checkPadRows(t, db, committed)
	if got := tbl.tree.Height(); got != h {
		t.Fatalf("recovered height %d, want the committed %d", got, h)
	}

	// The same keys again, committed this time, then a crash.
	commitRows(t, db, tbl, committed, next)
	st.Crash()
	disk.Crash()

	db = openDB(t, disk, st)
	tbl = checkPadRows(t, db, next)
	if got := tbl.tree.Height(); got != h+1 {
		t.Fatalf("recovered height %d, want %d", got, h+1)
	}
}

// TestBulkLoadIntoEmptyTableStartsInRoot: a load into an empty table
// packs its first leaf into the table's empty root leaf, so the table
// has exactly the leaves the load wrote, and a snapshot held across the
// load still reads the empty table. The result survives a crash.
func TestBulkLoadIntoEmptyTableStartsInRoot(t *testing.T) {
	disk := newCrashDisk()
	st := wal.NewMemStorage()
	db := openSmallDB(t, disk, st, 32)
	tbl, err := db.CreateTable("t", padSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = padRow(int64(i))
	}
	snap := db.Snapshot()
	bs, err := tbl.BulkLoad(NewValuesSource(rows), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Next() {
		t.Fatalf("snapshot taken before the load reads key %d", cur.Key())
	}
	cur.Close()
	snap.Release()
	if ts, err := tbl.Stats(); err != nil || ts.LeafPages != bs.LeafPages {
		t.Fatalf("table has %d leaves, the load wrote %d (%v)", ts.LeafPages, bs.LeafPages, err)
	}

	st.Crash()
	disk.Crash()
	db = openDB(t, disk, st)
	tbl = checkPadRows(t, db, n)
	if ts, err := tbl.Stats(); err != nil || ts.LeafPages != bs.LeafPages {
		t.Fatalf("recovered table has %d leaves, the load wrote %d (%v)", ts.LeafPages, bs.LeafPages, err)
	}
}
