package sqlmini

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sqlarray/internal/arraysugar"
	"sqlarray/internal/btree"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// This file is the tentpole's regression suite: readers ride snapshots
// instead of the (removed) table latch, so a scan opened before a
// commit must see exactly the pre-commit data, writers must never wait
// for an open scan, and when everything is released the version store
// and pin counts must drain to zero.

// openTestDB builds a WAL-backed in-memory database with one table of
// rows sequential keys, x = xInit for every row, and m a single-chunk
// 64-float MAX array.
func openTestDB(t *testing.T, rows int, xInit float64) (*engine.DB, *engine.Table) {
	t.Helper()
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{Disk: pages.NewMemDisk(), PoolPages: 1024, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	registerArrayFuncs(db)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
		engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]float64, 64)
	for i := 0; i < rows; i++ {
		for j := range arr {
			arr[j] = float64(j)
		}
		a, err := core.FromFloat64s(core.Max, core.Float64, arr, len(arr))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert([]engine.Value{
			engine.IntValue(int64(i)), engine.FloatValue(xInit), engine.BinaryMaxValue(a.Bytes()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// assertDrained checks the end-of-test invariants: no pinned frames, no
// active snapshots, and an empty page version store.
func assertDrained(t *testing.T, db *engine.DB) {
	t.Helper()
	if n := db.Pool().PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
	if n := db.Pool().ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left unreleased", n)
	}
	if n := db.Pool().VersionPages(); n != 0 {
		t.Fatalf("version store leaked %d page versions", n)
	}
}

// TestSnapshotIsolationGolden is the deterministic half: a scan opened
// before a commit streams exactly the pre-commit rows even though the
// writer commits — without blocking — while the scan is mid-stream, and
// a scan opened after the commit sees all of it.
func TestSnapshotIsolationGolden(t *testing.T) {
	for _, m := range []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{batchSize: 3}},
	} {
		t.Run(m.name, func(t *testing.T) {
			const rows = 300
			db, _ := openTestDB(t, rows, 1.0)
			opts := m.opts

			scan, err := queryWith(db, `SELECT id, x, m FROM t`, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Pull a handful of rows so the scan is genuinely mid-stream
			// with a pinned leaf below it.
			seen := 0
			for seen < 10 && scan.Next() {
				seen++
			}

			// The writer commits while the scan is open. Under the old
			// reader-latch design this UPDATE would deadlock against the
			// scan's RLock; snapshot reads let it run to completion here.
			if _, err := Execute(db, `UPDATE t SET x = 2`); err != nil {
				t.Fatalf("writer blocked or failed mid-scan: %v", err)
			}
			if _, err := Execute(db,
				`UPDATE t SET FloatArrayMax.Subarray(m, IntArray.Vector_1(0), IntArray.Vector_1(1), 1) = FloatArray.Vector_1(-1) WHERE id >= 0`); err != nil {
				t.Fatalf("blob writer blocked or failed mid-scan: %v", err)
			}
			if _, err := Execute(db, `DELETE FROM t WHERE id >= 200`); err != nil {
				t.Fatalf("delete blocked or failed mid-scan: %v", err)
			}

			// The in-flight scan still sees exactly the pre-commit state:
			// every row, x = 1, m[0] = 0.
			for scan.Next() {
				seen++
				row := scan.Row()
				if row[1].F != 1.0 {
					t.Fatalf("pre-commit scan saw post-commit x = %v at id %v", row[1].F, row[0].I)
				}
				a, err := core.Wrap(row[2].B)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := a.Item(0); got != 0 {
					t.Fatalf("pre-commit scan saw post-commit blob write m[0] = %v at id %v", got, row[0].I)
				}
			}
			if err := scan.Err(); err != nil {
				t.Fatal(err)
			}
			if err := scan.Close(); err != nil {
				t.Fatal(err)
			}
			if seen != rows {
				t.Fatalf("pre-commit scan yielded %d rows, want %d", seen, rows)
			}

			// A fresh scan sees the commits: 200 rows, x = 2, m[0] = -1.
			res, err := RunWith(db, `SELECT COUNT(*), MIN(x), MAX(x) FROM t`, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].I != 200 || res.Rows[0][1].F != 2 || res.Rows[0][2].F != 2 {
				t.Fatalf("post-commit scan: count=%v min=%v max=%v, want 200/2/2",
					res.Rows[0][0].I, res.Rows[0][1].F, res.Rows[0][2].F)
			}
			vals, err := RunWith(db, `SELECT m FROM t WHERE id = 0`, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Wrap(vals.Rows[0][0].B)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := a.Item(0); got != -1 {
				t.Fatalf("post-commit scan missed blob write: m[0] = %v", got)
			}
			assertDrained(t, db)
		})
	}
}

// TestSharedSnapshotAcrossQueries pins one explicit snapshot across
// several queries: statements committed after the snapshot was acquired
// stay invisible to every query run against it.
func TestSharedSnapshotAcrossQueries(t *testing.T) {
	db, _ := openTestDB(t, 100, 1.0)
	snap := db.Snapshot()
	if _, err := Execute(db, `UPDATE t SET x = 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(db, `DELETE FROM t WHERE id < 50`); err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Snapshot: snap}
	res, err := RunWith(db, `SELECT COUNT(*), MAX(x) FROM t`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 || res.Rows[0][1].F != 1 {
		t.Fatalf("snapshot query: count=%v max=%v, want 100/1", res.Rows[0][0].I, res.Rows[0][1].F)
	}
	// Same snapshot, second query — still the old view.
	res, err = RunWith(db, `SELECT COUNT(*) FROM t WHERE id < 50`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 50 {
		t.Fatalf("snapshot query after delete: count=%v, want 50", res.Rows[0][0].I)
	}
	// A plain query sees the live state.
	res, err = Run(db, `SELECT COUNT(*), MAX(x) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 50 || res.Rows[0][1].F != 5 {
		t.Fatalf("live query: count=%v max=%v, want 50/5", res.Rows[0][0].I, res.Rows[0][1].F)
	}
	snap.Release()
	assertDrained(t, db)
}

// TestRowsCloseMidStreamReleasesPins closes a streaming query mid-batch,
// with its scan still holding a leaf and its batch holding resolved MAX
// values, and checks that Close releases every pin and the snapshot.
func TestRowsCloseMidStreamReleasesPins(t *testing.T) {
	db, _ := openTestDB(t, 200, 1.0)
	// Small batches so the projection has resolved MAX blobs before we
	// abandon the stream.
	rows, err := queryWith(db, `SELECT id, m FROM t`, ExecOptions{batchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertDrained(t, db)

	// Same with the stream abandoned several batches in.
	rows, err = queryWith(db, `SELECT id, m FROM t`, ExecOptions{batchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if !rows.Next() {
			t.Fatalf("short stream: %v", rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertDrained(t, db)
}

// TestSnapshotStressMixedScanDML is the racing half (run with -race):
// writers continuously commit whole-table UPDATEs (every row's x moves
// together, plus a blob subarray write) while readers run parallel
// aggregate scans and MAX projections. Snapshot isolation
// makes "MIN(x) == MAX(x) and COUNT == rows" an invariant of every
// read, no matter how many commits land mid-scan; any torn read fails
// it. At the end, pins, snapshots and the version store drain to zero.
func TestSnapshotStressMixedScanDML(t *testing.T) {
	const rows = 400
	db, _ := openTestDB(t, rows, 0)
	opts := ExecOptions{Parallelism: 4, parallelThreshold: 64, batchSize: 64}

	iters := 40
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Readers: the consistency invariant plus a mid-stream abandon that
	// exercises early Close with live pins under concurrency.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := RunWith(db, `SELECT COUNT(*), MIN(x), MAX(x) FROM t`, opts)
				if err != nil {
					fail(fmt.Errorf("reader agg: %w", err))
					return
				}
				count, lo, hi := res.Rows[0][0].I, res.Rows[0][1].F, res.Rows[0][2].F
				if count != rows || lo != hi {
					fail(fmt.Errorf("torn read: count=%d min=%v max=%v", count, lo, hi))
					return
				}
				scan, err := queryWith(db, `SELECT id, x, m FROM t`, opts)
				if err != nil {
					fail(fmt.Errorf("reader scan: %w", err))
					return
				}
				first := -1.0
				n := 0
				for scan.Next() {
					row := scan.Row()
					if first < 0 {
						first = row[1].F
					} else if row[1].F != first {
						fail(fmt.Errorf("torn scan: x=%v then %v", first, row[1].F))
					}
					n++
					if r == 0 && n > 20 {
						break // abandon mid-stream: Close must still drain pins
					}
				}
				if err := scan.Err(); err != nil {
					fail(fmt.Errorf("reader scan rows: %w", err))
				}
				if err := scan.Close(); err != nil {
					fail(fmt.Errorf("reader scan close: %w", err))
				}
			}
		}(r)
	}

	// Writer: one committed generation per iteration — every row's x
	// advances together, and one blob gets an in-place subarray write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := Execute(db, `UPDATE t SET x = x + 1`); err != nil {
				fail(fmt.Errorf("writer update: %w", err))
				return
			}
			if _, err := Execute(db, fmt.Sprintf(
				`UPDATE t SET FloatArrayMax.Subarray(m, IntArray.Vector_1(4), IntArray.Vector_1(2), 1) = FloatArray.Vector_2(%d, %d) WHERE id = %d`,
				i, i+1, i%rows)); err != nil {
				fail(fmt.Errorf("writer subarray: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	assertDrained(t, db)

	// Final state is the last generation everywhere.
	res, err := Run(db, `SELECT COUNT(*), MIN(x), MAX(x) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != rows || res.Rows[0][1].F != float64(iters) || res.Rows[0][2].F != float64(iters) {
		t.Fatalf("final state: count=%v min=%v max=%v, want %d/%d/%d",
			res.Rows[0][0].I, res.Rows[0][1].F, res.Rows[0][2].F, rows, iters, iters)
	}
}

// TestQueryDuringCommitNeverSeesEmptyTable is the regression test for
// the catalog prune window: with no snapshot open, a commit used to
// prune every older catalog version of the table before the commit
// clock made the new one visible, so a query opening its snapshot in
// between resolved no version at all and saw zero rows. Readers here
// hold no snapshot between queries, so the writer's publish regularly
// runs with none open.
func TestQueryDuringCommitNeverSeesEmptyTable(t *testing.T) {
	const rows = 8
	db, _ := openTestDB(t, rows, 0)
	commits := 5000
	if testing.Short() {
		commits = 1000
	}
	done := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := Run(db, `SELECT COUNT(*) FROM t`)
			if err == nil && res.Rows[0][0].I != rows {
				err = fmt.Errorf("COUNT(*) = %d on a table of %d rows", res.Rows[0][0].I, rows)
			}
			if err != nil {
				select {
				case errCh <- err:
				default:
				}
				return
			}
		}
	}()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits && len(errCh) == 0; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		err = tbl.UpdateTx(tx, int64(i%rows), []int{1}, []engine.Value{engine.FloatValue(float64(i))})
		if err := tx.Close(err); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	assertDrained(t, db)
}

// TestMaxRefReadsUnderConcurrentUpdate runs array-function scans over a
// MAX column — its blob refs crossing the UDF boundary, each call
// reading the header and the runs it needs — while a writer rewrites
// the same values whole, patches them through subscript assignments,
// and deletes and re-inserts rows so freed blob pages are reused. Every
// row a scan returns must be the value as of the scan's snapshot: an
// explicit snapshot is checked against what that snapshot materializes,
// and a query-owned one by the row's value band (|x| in
// [id*10000, id*10000+10000)), which a foreign blob's bytes would leave.
func TestMaxRefReadsUnderConcurrentUpdate(t *testing.T) {
	const rows, n = 24, 2500
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{Disk: pages.NewMemDisk(), PoolPages: 1024, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	RegisterTSQL(db)
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("vol", s)
	if err != nil {
		t.Fatal(err)
	}
	// Even rows step by 2^-20 (the writer packs them), odd rows are
	// noise within the band (stored as raw blocks, three chunk pages).
	value := func(id int64, rng *rand.Rand) engine.Value {
		vals := make([]float64, n)
		for j := range vals {
			if id%2 == 0 {
				vals[j] = float64(id*10000+5000) + float64(j)/(1<<20)
			} else {
				vals[j] = float64(id*10000) + rng.Float64()*9999
			}
		}
		a, err := core.FromFloat64s(core.Max, core.Float64, vals, n)
		if err != nil {
			t.Fatal(err)
		}
		return engine.BinaryMaxValue(a.Bytes())
	}
	setup := rand.New(rand.NewSource(1))
	for id := int64(0); id < rows; id++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(id), value(id, setup)}); err != nil {
			t.Fatal(err)
		}
	}
	if metric(t, db.Metrics(), "blob.stored_bytes_written") >= metric(t, db.Metrics(), "blob.bytes_written") {
		t.Fatal("no array was packed; the compressed read path goes untested")
	}
	inBand := func(id int64, x float64) bool {
		x = math.Abs(x)
		return x >= float64(id*10000) && x < float64(id*10000+10000)
	}

	var (
		writes   atomic.Int64
		stop     atomic.Bool
		writerWG sync.WaitGroup
		werr     error
	)
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(2))
		cols := arraysugar.Columns{"a": "FloatArrayMax"}
		for !stop.Load() {
			id := rng.Int63n(rows)
			var err error
			switch r := rng.Intn(10); {
			case r < 4:
				// The predicate reads a through its ref in the UPDATE's
				// read phase; it holds for every value the test writes.
				_, err = Execute(db, fmt.Sprintf(
					"UPDATE vol SET a = FloatArrayMax.Scale(a, -1) WHERE id = %d AND FloatArrayMax.Item_1(a, 0) <> 0", id))
			case r < 7:
				k, v := rng.Intn(n-2), float64(id*10000)+0.5
				var q string
				q, err = arraysugar.Translate(fmt.Sprintf(
					"UPDATE vol SET a[%d:%d] = FloatArray.Vector_2(%g, %g) WHERE id = %d", k, k+2, v, v, id), cols)
				if err == nil {
					_, err = Execute(db, q)
				}
			default:
				if _, err = Execute(db, fmt.Sprintf("DELETE FROM vol WHERE id = %d AND FloatArrayMax.Length(a) = %d", id, n)); err == nil {
					err = tbl.Insert([]engine.Value{engine.IntValue(id), value(id, rng)})
				}
			}
			if err != nil {
				werr = err
				return
			}
			writes.Add(1)
		}
	}()

	var readerWG sync.WaitGroup
	rerrs := make(chan error, 2) // the first failure of each reader; later ones are dropped
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(10 + r)))
			fail := func(format string, args ...any) {
				select {
				case rerrs <- fmt.Errorf(format, args...):
				default:
				}
			}
			for i := 0; i < 20; i++ {
				k, off := rng.Intn(n), rng.Intn(n-300)
				size := 1 + rng.Intn(300)
				q := fmt.Sprintf("SELECT id, FloatArrayMax.Item_1(a, %d), FloatArrayMax.Subarray(a, IntArray.Vector_1(%d), IntArray.Vector_1(%d), 0), FloatArrayMax.Length(a) FROM vol",
					k, off, size)
				opts := ExecOptions{batchSize: []int{1, 3, 0}[rng.Intn(3)]}
				if i%2 == 0 {
					// Query-owned snapshot: each row must be its own.
					res, err := RunWith(db, q, opts)
					if err != nil {
						fail("%s: %v", q, err)
						return
					}
					for _, row := range res.Rows {
						id := row[0].I
						sub, err := core.Wrap(row[2].B)
						if err != nil || !inBand(id, row[1].F) || row[3].I != n || sub.Len() != size {
							fail("%s: row %d = %v (%v)", q, id, row, err)
							return
						}
						for _, x := range sub.Float64s() {
							if !inBand(id, x) {
								fail("%s: row %d subarray element %g is not the row's", q, id, x)
								return
							}
						}
					}
					continue
				}
				// Explicit snapshot, with commits landing after it opens.
				snap := db.Snapshot()
				for w0 := writes.Load(); writes.Load() < w0+2 && !stop.Load(); {
					runtime.Gosched()
				}
				opts.Snapshot = snap
				res, err := RunWith(db, q, opts)
				if err != nil {
					snap.Release()
					fail("%s: %v", q, err)
					return
				}
				got := make(map[int64][]engine.Value, len(res.Rows))
				for _, row := range res.Rows {
					got[row[0].I] = row
				}
				for id := int64(0); id < rows; id++ {
					vals, err := tbl.GetAt(snap, id)
					if errors.Is(err, btree.ErrNotFound) {
						if got[id] != nil {
							fail("%s: row %d returned, absent at the snapshot", q, id)
						}
						continue
					}
					if err != nil {
						fail("GetAt %d: %v", id, err)
						break
					}
					payload, err := tbl.ResolveMaxAt(snap, vals[1].B)
					if err != nil {
						fail("ResolveMaxAt %d: %v", id, err)
						break
					}
					a, err := core.Wrap(payload)
					if err != nil {
						fail("row %d: %v", id, err)
						break
					}
					item, _ := a.Item(k)
					sub, err := a.Subarray([]int{off}, []int{size}, false)
					if err == nil {
						sub, err = sub.ConvertClass(core.Max)
					}
					if err != nil {
						fail("row %d: %v", id, err)
						break
					}
					row := got[id]
					if row == nil || row[1].F != item || !bytes.Equal(row[2].B, sub.Bytes()) || row[3].I != n {
						fail("%s: row %d differs from its value at the snapshot", q, id)
						break
					}
				}
				snap.Release()
			}
		}(r)
	}
	readerWG.Wait()
	stop.Store(true)
	writerWG.Wait()
	close(rerrs)
	for err := range rerrs {
		t.Error(err)
	}
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if writes.Load() == 0 {
		t.Fatal("the writer never committed")
	}
	t.Logf("%d writer statements during the scans", writes.Load())
	assertDrained(t, db)
}
