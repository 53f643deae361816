package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// bulkRows builds n rows of the walTestSchema with keys base..base+n-1,
// every third row carrying a multi-chunk MAX array.
func bulkRows(t *testing.T, base int64, n int) [][]Value {
	t.Helper()
	rows := make([][]Value, n)
	for i := 0; i < n; i++ {
		k := base + int64(i)
		m := Null
		if i%3 == 0 {
			m = BinaryMaxValue(bigArray(t, arrElems, float64(k)*10).Bytes())
		}
		rows[i] = []Value{IntValue(k), FloatValue(float64(k) / 2), m}
	}
	return rows
}

// openSmallDB is openDB on a pool of poolPages frames. A load syncs the
// WAL every poolPages/4 pages, so a small pool makes it sync many times
// mid-staging.
func openSmallDB(t *testing.T, disk pages.DiskManager, st wal.Storage, poolPages int) *DB {
	t.Helper()
	db, err := Open(Options{Disk: disk, PoolPages: poolPages, WAL: openWAL(t, st)})
	if err != nil {
		t.Fatalf("engine.Open: %v", err)
	}
	return db
}

// TestBulkLoadFitsSmallPools: a WAL-backed load of 300 rows, a third of
// them multi-chunk arrays, completes on 64- and 128-frame pools and
// reads back whole. Staged pages stay unevictable until the log syncs
// past them, so a sync interval fixed at 256 pages exhausted both.
func TestBulkLoadFitsSmallPools(t *testing.T) {
	for _, poolPages := range []int{64, 128} {
		t.Run(fmt.Sprint(poolPages), func(t *testing.T) {
			db := openSmallDB(t, pages.NewMemDisk(), wal.NewMemStorage(), poolPages)
			tbl, err := db.CreateTable("t", walTestSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			const n = 300
			if _, err := tbl.BulkLoad(NewValuesSource(bulkRows(t, 0, n)), BulkOptions{}); err != nil {
				t.Fatalf("BulkLoad on a %d-frame pool: %v", poolPages, err)
			}
			if got := tbl.Rows(); got != n {
				t.Fatalf("rows = %d, want %d", got, n)
			}
			for _, k := range []int64{0, 1, n / 2, n - 3} {
				v, err := tbl.Get(k)
				if err != nil {
					t.Fatalf("Get(%d): %v", k, err)
				}
				if v[1].F != float64(k)/2 {
					t.Errorf("key %d: x = %v", k, v[1].F)
				}
				if k%3 == 0 {
					a := fetchArray(t, tbl, k, 2)
					if got, want := a.FloatAt(arrElems-1), float64(k)*10+arrElems-1; got != want {
						t.Errorf("key %d: last element %v, want %v", k, got, want)
					}
				}
			}
			verifyInvariants(t, db, "t")
		})
	}
}

// TestBulkLoadMatchesInsert loads one table through BulkLoad and a twin
// through row-at-a-time Insert, then checks the two read identically.
func TestBulkLoadMatchesInsert(t *testing.T) {
	db := openSmallDB(t, pages.NewMemDisk(), wal.NewMemStorage(), 32)
	bulk, err := db.CreateTable("bulk", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := db.CreateTable("slow", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	rows := bulkRows(t, 0, n)
	// Feed the loader in shuffled order to exercise the sort stage.
	shuffled := make([][]Value, n)
	for i, r := range rows {
		shuffled[(i*7)%n] = r
	}
	st, err := bulk.BulkLoad(NewValuesSource(shuffled), BulkOptions{})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if st.Rows != n {
		t.Fatalf("stats.Rows = %d, want %d", st.Rows, n)
	}
	if st.LeafPages == 0 || st.BlobPages == 0 {
		t.Fatalf("stats pages = %+v, want both kinds written", st)
	}
	for _, r := range rows {
		if err := slow.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := bulk.Rows(), slow.Rows(); got != want {
		t.Fatalf("rows %d, want %d", got, want)
	}
	bs, err := bulk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := slow.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Rows != ss.Rows || bs.RowBytes != ss.RowBytes || bs.BlobBytes != ss.BlobBytes {
		t.Fatalf("stats diverge: bulk %+v, insert %+v", bs, ss)
	}
	if bs.LeafPages > ss.LeafPages {
		t.Fatalf("bulk wrote %d leaves, insert path %d — packed leaves must not be worse", bs.LeafPages, ss.LeafPages)
	}
	// Row-by-row equivalence, forward scan order and blob contents.
	var keys []int64
	err = scanRows(bulk, func(key int64, row []Value) (bool, error) {
		keys = append(keys, key)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scanned %d rows, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("scan order broken at %d: key %d", i, k)
		}
	}
	for _, k := range []int64{0, 3, n - 1, n / 2} {
		bv, err := bulk.Get(k)
		if err != nil {
			t.Fatalf("bulk Get(%d): %v", k, err)
		}
		sv, err := slow.Get(k)
		if err != nil {
			t.Fatalf("slow Get(%d): %v", k, err)
		}
		if bv[1].F != sv[1].F {
			t.Fatalf("key %d: f %v != %v", k, bv[1].F, sv[1].F)
		}
		if k%3 == 0 {
			ba := fetchArray(t, bulk, k, 2)
			sa := fetchArray(t, slow, k, 2)
			if ba.FloatAt(arrElems-1) != sa.FloatAt(arrElems-1) {
				t.Fatalf("key %d: blob tails diverge", k)
			}
		}
	}
	verifyInvariants(t, db, "bulk", "slow")
}

// TestBulkLoadAppend checks the strict-append contract: loads stack on
// top of existing rows, overlapping keys and in-source duplicates are
// rejected without disturbing the table.
func TestBulkLoadAppend(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bulkRows(t, 0, 20) {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.BulkLoad(NewValuesSource(bulkRows(t, 20, 50)), BulkOptions{}); err != nil {
		t.Fatalf("append load: %v", err)
	}
	// Second stacked load on top of the first.
	if _, err := tbl.BulkLoad(NewValuesSource(bulkRows(t, 70, 30)), BulkOptions{}); err != nil {
		t.Fatalf("second append load: %v", err)
	}
	if got := tbl.Rows(); got != 100 {
		t.Fatalf("rows = %d, want 100", got)
	}

	// Overlap with existing keys must be rejected wholesale.
	if _, err := tbl.BulkLoad(NewValuesSource(bulkRows(t, 99, 5)), BulkOptions{}); !errors.Is(err, errBulkOverlap) {
		t.Fatalf("overlapping load: err = %v, want errBulkOverlap", err)
	}
	// Duplicate keys inside the source are rejected.
	dup := bulkRows(t, 200, 3)
	dup = append(dup, dup[1])
	if _, err := tbl.BulkLoad(NewValuesSource(dup), BulkOptions{}); !errors.Is(err, btree.ErrDuplicate) {
		t.Fatalf("duplicate load: err = %v, want ErrDuplicate", err)
	}
	if got := tbl.Rows(); got != 100 {
		t.Fatalf("rows after rejected loads = %d, want 100", got)
	}
	// The table still takes normal writes and reads coherently.
	if err := tbl.Insert([]Value{IntValue(500), FloatValue(1), Null}); err != nil {
		t.Fatal(err)
	}
	verifyInvariants(t, db, "t")
}

// TestBulkLoadEmptySource loads zero rows: a no-op, no session, no
// catalog churn.
func TestBulkLoadEmptySource(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := tbl.BulkLoad(NewValuesSource(nil), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st != (BulkStats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
	verifyInvariants(t, db, "t")
}

// failingSource yields good rows, then an injected error — a parse
// failure deep into a load, after blob pages have already been written
// and synced into the WAL.
type failingSource struct {
	rows [][]Value
	i    int
}

var errInjected = errors.New("injected source failure")

func (s *failingSource) Next() ([]Value, error) {
	if s.i >= len(s.rows) {
		return nil, errInjected
	}
	r := s.rows[s.i]
	s.i++
	return r, nil
}

// TestBulkLoadCrashMidLoad kills the database after a load died part way
// through staging (blob pages logged and synced, no commit). Recovery
// must show none of the load: prior rows intact, free list untouched,
// and the table fully usable — including a clean retry of the same load.
func TestBulkLoadCrashMidLoad(t *testing.T) {
	disk := pages.NewMemDisk()
	st := wal.NewMemStorage()
	db := openSmallDB(t, disk, st, 8)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bulkRows(t, 0, 10) {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	freeBefore, err := db.blobs.FreeListLen()
	if err != nil {
		t.Fatal(err)
	}

	// An 8-frame pool syncs the WAL every 2 pages mid-staging:
	// uncommitted page images are durably in the log when the load dies.
	_, err = tbl.BulkLoad(&failingSource{rows: bulkRows(t, 100, 30)}, BulkOptions{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("load error = %v, want injected failure", err)
	}
	if got := tbl.Rows(); got != 10 {
		t.Fatalf("rows after failed load = %d, want 10", got)
	}

	// Crash and recover: the uncommitted staged images must not be
	// applied (all-or-nothing: none of the load).
	st.Crash()
	db2 := openSmallDB(t, disk, st, 8)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.Rows(); got != 10 {
		t.Fatalf("recovered rows = %d, want 10", got)
	}
	if _, err := tbl2.Get(100); !errors.Is(err, btree.ErrNotFound) {
		t.Fatalf("staged key visible after crash: err = %v", err)
	}
	freeAfter, err := db2.blobs.FreeListLen()
	if err != nil {
		t.Fatal(err)
	}
	if freeAfter != freeBefore {
		t.Fatalf("free list length changed across failed load: %d -> %d", freeBefore, freeAfter)
	}

	// The same load retried on the recovered database lands completely.
	if _, err := tbl2.BulkLoad(NewValuesSource(bulkRows(t, 100, 30)), BulkOptions{}); err != nil {
		t.Fatalf("retry load: %v", err)
	}
	if got := tbl2.Rows(); got != 40 {
		t.Fatalf("rows after retry = %d, want 40", got)
	}
	verifyInvariants(t, db2, "t")
}

// TestBulkLoadCrashAfterCommit is the other half of all-or-nothing: a
// load whose commit record synced survives a crash in full.
func TestBulkLoadCrashAfterCommit(t *testing.T) {
	disk := pages.NewMemDisk()
	st := wal.NewMemStorage()
	db := openSmallDB(t, disk, st, 16)
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BulkLoad(NewValuesSource(bulkRows(t, 0, 120)), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	db2 := openDB(t, disk, st)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.Rows(); got != 120 {
		t.Fatalf("recovered rows = %d, want 120", got)
	}
	a := fetchArray(t, tbl2, 117, 2)
	if got, want := a.FloatAt(5), 1170.0+5; got != want {
		t.Fatalf("recovered blob elem = %v, want %v", got, want)
	}
	verifyInvariants(t, db2, "t")
}

// TestBulkLoadConcurrentSnapshots races bulk loads against snapshot
// scans: every reader must see a committed prefix of whole loads —
// a multiple of the batch size — never a torn one. Run under -race.
func TestBulkLoadConcurrentSnapshots(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	schema, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 12
	const perBatch = 300

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
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
				cur, err := tbl.CursorRangeAt(s, math.MinInt64, math.MaxInt64)
				if err != nil {
					s.Release()
					errs <- err
					return
				}
				n := 0
				last := int64(-1)
				for cur.Next() {
					if k := cur.Key(); k != last+1 {
						errs <- fmt.Errorf("scan gap: key %d after %d", k, last)
						cur.Close()
						s.Release()
						return
					} else {
						last = k
					}
					n++
				}
				err = cur.Err()
				cur.Close()
				s.Release()
				if err != nil {
					errs <- err
					return
				}
				if n%perBatch != 0 {
					errs <- fmt.Errorf("torn read: %d rows is not a whole number of loads", n)
					return
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		rows := make([][]Value, perBatch)
		for i := range rows {
			k := int64(b*perBatch + i)
			rows[i] = []Value{IntValue(k), FloatValue(float64(k))}
		}
		if _, err := tbl.BulkLoad(NewValuesSource(rows), BulkOptions{}); err != nil {
			t.Fatalf("load %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != batches*perBatch {
		t.Fatalf("rows = %d, want %d", got, batches*perBatch)
	}
	verifyInvariants(t, db, "t")
}

// TestBulkLoadRejectsOverWideRow feeds a row too wide for a leaf page
// into the middle of a load: two VARBINARY(8000) columns that each fit
// alone. The load fails with errRowTooWide and the table keeps exactly
// the rows it had.
func TestBulkLoadRejectsOverWideRow(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "a", Type: ColVarBinary},
		Column{Name: "b", Type: ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	small := []byte("ok")
	if err := tbl.Insert([]Value{IntValue(0), BinaryValue(small), Null}); err != nil {
		t.Fatal(err)
	}
	wide := make([]byte, 5000)
	var rows [][]Value
	for k := int64(1); k <= 20; k++ {
		rows = append(rows, []Value{IntValue(k), BinaryValue(small), BinaryValue(small)})
	}
	rows[10] = []Value{IntValue(11), BinaryValue(wide), BinaryValue(wide)}
	if 9+2*(3+len(wide)) <= btree.MaxValueSize { // id, then two (flag, length, bytes) columns
		t.Fatalf("row of two %d-byte columns fits a leaf (MaxValueSize %d)", len(wide), btree.MaxValueSize)
	}
	if _, err := tbl.BulkLoad(NewValuesSource(rows), BulkOptions{}); !errors.Is(err, errRowTooWide) {
		t.Fatalf("BulkLoad: err = %v, want errRowTooWide", err)
	}
	if got := tbl.Rows(); got != 1 {
		t.Fatalf("rows after rejected load = %d, want 1", got)
	}
	var keys []int64
	if err := scanRows(tbl, func(key int64, row []Value) (bool, error) {
		keys = append(keys, key)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 0 {
		t.Fatalf("keys after rejected load = %v, want [0]", keys)
	}
	got, err := tbl.Get(0)
	if err != nil || string(got[1].B) != string(small) || !got[2].IsNull() {
		t.Fatalf("row 0 after rejected load = %v, %v", got, err)
	}
	verifyInvariants(t, db, "t")
}

// benchSource yields n fixed-width benchSchema rows through one reused
// row, so a load's allocations are the loader's own.
type benchSource struct {
	i, n int
	row  [4]Value
}

func (s *benchSource) Next() ([]Value, error) {
	if s.i == s.n {
		return nil, io.EOF
	}
	f := float64(s.i)
	s.row = [4]Value{IntValue(int64(s.i)), FloatValue(f), FloatValue(f * 2), FloatValue(f * 3)}
	s.i++
	return s.row[:], nil
}

// TestBulkLoadAllocationsPerRow holds staging to no allocation per row:
// row images go to one arena, the sort runs over pointer-free entries,
// and the leaf writer reuses one record buffer. What remains (arena and
// entry growth, fresh pages, the commit) is per load or per page. The
// count includes opening the database and creating the table.
func TestBulkLoadAllocationsPerRow(t *testing.T) {
	const rows = 20_000
	allocs := testing.AllocsPerRun(3, func() {
		db := memDB(t)
		tbl, err := db.CreateTable("t", benchSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		st, err := tbl.BulkLoad(&benchSource{n: rows}, BulkOptions{})
		if err != nil || st.Rows != rows {
			t.Fatalf("BulkLoad: %+v, %v", st, err)
		}
	})
	t.Logf("%.0f allocations for %d rows (%.3f per row)", allocs, rows, allocs/rows)
	if perRow := allocs / rows; perRow >= 0.1 {
		t.Errorf("BulkLoad makes %.3f allocations per row, want < 0.1", perRow)
	}
}
