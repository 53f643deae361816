package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// oneRowTable opens a log-less database with the bench schema and
// inserts a first row, so the measured inserts below are appends to a
// warm table (no root split, no table creation).
func oneRowTable(tb testing.TB) *Table {
	tb.Helper()
	db := memDB(tb)
	tbl, err := db.CreateTable("t", benchSchema(tb))
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntValue(0), FloatValue(0), FloatValue(0), FloatValue(0)}); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestOneRowInsertAllocations bounds the allocations of a one-row
// autocommit Insert on a database without a log: begin, capture, one
// copy-on-write leaf, publish and retire. What allocates is the Tx and
// the session's catalog (the catalog struct and its table slice, the
// immutable value the commit publishes). The pool reuses its capture
// and emptied version chains, and the row image and leaf record are
// encoded into buffers the writer reuses; a map per capture or session,
// or a per-row buffer, shows up here.
func TestOneRowInsertAllocations(t *testing.T) {
	tbl := oneRowTable(t)
	row := []Value{IntValue(1), FloatValue(1), FloatValue(2), FloatValue(3)}
	key := int64(1)
	allocs := testing.AllocsPerRun(200, func() {
		row[0] = IntValue(key)
		key++
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-row Insert: %.1f allocations", allocs)
	if allocs > 3 {
		t.Errorf("one-row Insert makes %.1f allocations, want <= 3", allocs)
	}
}

// addTables creates n more empty tables in tbl's database, so a commit
// to tbl runs beside n untouched catalog entries.
func addTables(tb testing.TB, tbl *Table, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if _, err := tbl.db.CreateTable(fmt.Sprint("other", i), benchSchema(tb)); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOneRowCommitAllocationsDoNotGrowWithTables: a one-row commit
// handles only the table it writes, so it makes as many allocations in
// a database of 256 tables as in one of 1.
func TestOneRowCommitAllocationsDoNotGrowWithTables(t *testing.T) {
	allocs := func(tables int) float64 {
		tbl := oneRowTable(t)
		addTables(t, tbl, tables-1)
		row := []Value{IntValue(1), FloatValue(1), FloatValue(2), FloatValue(3)}
		key := int64(1)
		return testing.AllocsPerRun(200, func() {
			row[0] = IntValue(key)
			key++
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(256)
	t.Logf("one-row commit: %.1f allocations with 1 table, %.1f with 256", one, many)
	if one != many {
		t.Errorf("one-row commit makes %.1f allocations with 256 tables, %.1f with 1", many, one)
	}
}

// BenchmarkOneRowCommit is the cost of a one-row autocommit Insert on a
// database without a log: the engine's commit path (capture,
// copy-on-write, publish, version retirement) with no device or WAL
// time in it. Table 1's fixture loads 800 000 rows this way. The
// tables=N cases run it in a database of N tables, one written: the
// next catalog copies one 48-byte entry per table and touches only the
// written one. The held-snapshot case (1 table) keeps one snapshot open
// across every commit, the shape of a long analysis query running while
// rows load: a commit must cost the same with it as without it.
func BenchmarkOneRowCommit(b *testing.B) {
	run := func(b *testing.B, tables int, held bool) {
		tbl := oneRowTable(b)
		addTables(b, tbl, tables-1)
		if held {
			s := tbl.db.Snapshot()
			defer s.Release()
		}
		row := []Value{IntValue(1), FloatValue(1), FloatValue(2), FloatValue(3)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row[0] = IntValue(int64(i + 1))
			if err := tbl.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, tables := range []int{1, 16, 256} {
		b.Run(fmt.Sprint("tables=", tables), func(b *testing.B) { run(b, tables, false) })
	}
	b.Run("held-snapshot", func(b *testing.B) { run(b, 1, true) })
}

// TestHeldSnapshotBoundsVersions holds one snapshot across 20 000
// one-row commits. The snapshot keeps reading the rows it opened on,
// the pool retains at most one version per page the snapshot reads —
// never one per commit — and releasing it leaves no version and no
// snapshot behind. The per-commit time is logged: with retention
// re-scanning every kept version on each publish, it grew with the
// number of commits since the snapshot opened.
func TestHeldSnapshotBoundsVersions(t *testing.T) {
	db, err := Open(Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", benchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k int64) {
		t.Helper()
		if err := tbl.Insert([]Value{IntValue(k), FloatValue(float64(k)), FloatValue(0), FloatValue(0)}); err != nil {
			t.Fatal(err)
		}
	}
	const before, commits = 2000, 20000
	for k := int64(0); k < before; k++ {
		insert(k)
	}
	snap := db.Snapshot()
	pagesAtOpen := db.Pool().Disk().NumPages()
	start := time.Now()
	for k := int64(before); k < before+commits; k++ {
		insert(k)
	}
	t.Logf("%d one-row commits under a held snapshot: %.2f µs each",
		commits, float64(time.Since(start).Microseconds())/commits)

	if got := tbl.RowsAt(snap); got != before {
		t.Errorf("snapshot counts %d rows, want %d", got, before)
	}
	var n int64
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		if cur.Key() != n {
			t.Fatalf("snapshot row %d has key %d", n, cur.Key())
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if n != before {
		t.Errorf("snapshot scans %d rows, want %d", n, before)
	}
	st, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != before+commits {
		t.Errorf("committed rows = %d, want %d", st.Rows, before+commits)
	}
	// The snapshot reads one version of each page that existed when it
	// opened; pages created later have no version it can read.
	vers := db.Pool().VersionPages()
	t.Logf("VersionPages = %d (pages at open %d, leaf pages now %d)", vers, pagesAtOpen, st.LeafPages)
	if vers > pagesAtOpen || vers > st.LeafPages {
		t.Errorf("VersionPages = %d with one snapshot held, want <= %d (pages when it opened) and <= %d (leaf pages)",
			vers, pagesAtOpen, st.LeafPages)
	}
	snap.Release()
	if got := db.Pool().VersionPages(); got != 0 {
		t.Errorf("VersionPages after release = %d, want 0", got)
	}
	if got := db.Pool().ActiveSnapshots(); got != 0 {
		t.Errorf("ActiveSnapshots after release = %d, want 0", got)
	}
}

// TestCreateTableVisibleAtCommit: a table created in an open session is
// in no catalog a reader can see — db.Table and a snapshot opened
// meanwhile miss it — until the session commits, and a snapshot opened
// before the commit keeps missing it after.
func TestCreateTableVisibleAtCommit(t *testing.T) {
	db := memDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableTx(tx, "t", benchSchema(t))
	if err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tbl.InsertTx(tx, []Value{IntValue(1), FloatValue(1), FloatValue(2), FloatValue(3)}); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if _, err := db.Table("t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("db.Table before commit: %v, want ErrNoTable", err)
	}
	before := db.Snapshot()
	defer before.Release()
	if n := tbl.RowsAt(before); n != 0 {
		t.Errorf("snapshot before commit counts %d rows", n)
	}
	if _, err := tbl.GetAt(before, 1); err == nil {
		t.Error("snapshot before commit reads the uncommitted row")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("t")
	if err != nil || got != tbl {
		t.Fatalf("db.Table after commit = %v, %v", got, err)
	}
	if n := tbl.Rows(); n != 1 {
		t.Errorf("Rows after commit = %d, want 1", n)
	}
	if n := tbl.RowsAt(before); n != 0 {
		t.Errorf("snapshot opened before the commit counts %d rows after it", n)
	}
}

// TestAbortedCreateTableLeavesNoTable: an aborted CREATE TABLE leaves no
// table behind, its name can be created again, and the aborted handle
// reads as empty through later snapshots.
func TestAbortedCreateTableLeavesNoTable(t *testing.T) {
	db := memDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	gone, err := db.CreateTableTx(tx, "t", benchSchema(t))
	if err == nil {
		err = gone.InsertTx(tx, []Value{IntValue(1), FloatValue(1), FloatValue(2), FloatValue(3)})
	}
	if err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Close(errors.New("statement failed")); err == nil {
		t.Fatal("Close with a statement error returned nil")
	}
	if _, err := db.Table("t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("db.Table after abort: %v, want ErrNoTable", err)
	}
	tbl, err := db.CreateTable("t", benchSchema(t))
	if err != nil {
		t.Fatalf("re-creating the aborted table's name: %v", err)
	}
	if err := tbl.Insert([]Value{IntValue(2), FloatValue(1), FloatValue(2), FloatValue(3)}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Rows(); n != 1 {
		t.Errorf("re-created table has %d rows, want 1", n)
	}
	if n := gone.Rows(); n != 0 {
		t.Errorf("aborted table handle counts %d rows, want 0", n)
	}
	if got, err := db.Table("t"); err != nil || got != tbl {
		t.Errorf("db.Table = %v, %v; want the re-created table", got, err)
	}
}

// TestSnapshotPairsTagWithCatalog: a snapshot's page tag and catalog
// come from one commit. Readers open snapshots while a writer commits
// ascending one-row inserts, and each compares the catalog's row count
// with the largest key its tree holds at the snapshot's tag; a catalog
// older or newer than the pages shows as a mismatch. The window is a
// few instructions wide, so the writer commits a few thousand times.
func TestSnapshotPairsTagWithCatalog(t *testing.T) {
	db := memDB(t)
	tbl, err := db.CreateTable("t", benchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	row := []Value{IntValue(0), FloatValue(0), FloatValue(0), FloatValue(0)}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				n := tbl.RowsAt(s)
				_, max, ok, err := tbl.KeyBoundsAt(s)
				s.Release()
				if err == nil && (!ok || max+1 != n) {
					err = fmt.Errorf("snapshot %d: catalog counts %d rows, its tree ends at key %d", s.Tag(), n, max)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for k := int64(1); k < 5000 && len(errs) == 0; k++ {
		row[0] = IntValue(k)
		if err := tbl.Insert(row); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Error(err)
	default:
	}
}
