package sqlmini

import (
	"fmt"
	"sync"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// TestConcurrentDMLAndParallelScans runs writers (INSERT / UPDATE /
// subarray UPDATE / DELETE through the SQL layer, WAL-logged) against
// readers driving parallel aggregate scans and MAX-column projections
// on the sharded buffer pool. Run under -race this is the
// satellite's writers-vs-readers soundness check; afterward no pin may
// dangle and the catalog row count must match a full scan.
func TestConcurrentDMLAndParallelScans(t *testing.T) {
	disk := pages.NewMemDisk()
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{Disk: disk, PoolPages: 1024, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	registerArrayFuncs(db)
	mkTable := func(name string, rows int) *engine.Table {
		s, err := engine.NewSchema(
			engine.Column{Name: "id", Type: engine.ColInt64},
			engine.Column{Name: "x", Type: engine.ColFloat64},
			engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
		)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(name, s)
		if err != nil {
			t.Fatal(err)
		}
		arr := make([]float64, 64)
		for i := 0; i < rows; i++ {
			for j := range arr {
				arr[j] = float64(i + j)
			}
			a, err := core.FromFloat64s(core.Max, core.Float64, arr, len(arr))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert([]engine.Value{
				engine.IntValue(int64(i)), engine.FloatValue(float64(i)), engine.BinaryMaxValue(a.Bytes()),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	hot := mkTable("hot", 2000) // DML target
	mkTable("warm", 2000)       // read-only neighbour
	opts := ExecOptions{Parallelism: 4, parallelThreshold: 64}

	const iters = 60
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Readers: parallel aggregates on both tables plus a MAX projection
	// (resolves blobs through the reader's snapshot).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tables := []string{"hot", "warm"}
			for i := 0; i < iters; i++ {
				tn := tables[(r+i)%2]
				if _, err := RunWith(db, fmt.Sprintf(`SELECT COUNT(*), SUM(x) FROM %s WHERE id >= 100`, tn), opts); err != nil {
					fail(fmt.Errorf("reader agg: %w", err))
					return
				}
				rows, err := queryWith(db, fmt.Sprintf(`SELECT TOP 40 id, m FROM %s WHERE id >= %d`, tn, i), opts)
				if err != nil {
					fail(fmt.Errorf("reader proj: %w", err))
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					fail(fmt.Errorf("reader proj rows: %w", err))
				}
				if err := rows.Close(); err != nil {
					fail(fmt.Errorf("reader proj close: %w", err))
				}
			}
		}(r)
	}

	// Writers: disjoint key bands per writer, full DML mix.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 10000 + w*10000
			for i := 0; i < iters; i++ {
				k := base + i
				if _, err := Execute(db, fmt.Sprintf(
					`INSERT INTO hot VALUES (%d, %d.5, FloatArray.Vector_3(1,2,3))`, k, i)); err != nil {
					fail(fmt.Errorf("writer insert: %w", err))
					return
				}
				if _, err := Execute(db, fmt.Sprintf(
					`UPDATE hot SET x = x + 1 WHERE id = %d`, i%2000)); err != nil {
					fail(fmt.Errorf("writer update: %w", err))
					return
				}
				if _, err := Execute(db, fmt.Sprintf(
					`UPDATE hot SET FloatArrayMax.Subarray(m, IntArray.Vector_1(8), IntArray.Vector_1(2), 1) = FloatArray.Vector_2(-5, -6) WHERE id = %d`, i%2000)); err != nil {
					fail(fmt.Errorf("writer subarray: %w", err))
					return
				}
				if i%4 == 3 {
					if _, err := Execute(db, fmt.Sprintf(`DELETE FROM hot WHERE id = %d`, k-2)); err != nil {
						fail(fmt.Errorf("writer delete: %w", err))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Invariants: no dangling pins, catalog count matches a real scan,
	// every surviving blob resolves.
	if pins := db.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned after concurrent workload", pins)
	}
	snap := db.Snapshot()
	defer snap.Release()
	n := int64(0)
	err = hot.Scan(func(key int64, row *engine.RowView) (bool, error) {
		v, err := row.Col(2)
		if err != nil {
			return false, err
		}
		if !v.IsNull() {
			if _, err := hot.ResolveMaxAt(snap, v.B); err != nil {
				return false, err
			}
		}
		n++
		return true, nil
	})
	if err != nil {
		t.Fatalf("post-workload scan: %v", err)
	}
	if n != hot.Rows() {
		t.Fatalf("scanned %d rows, catalog says %d", n, hot.Rows())
	}
	// The subarray writes landed.
	vals, err := hot.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := hot.ResolveMaxAt(snap, vals[2].B)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Wrap(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Item(8); got != -5 {
		t.Fatalf("subarray write lost under concurrency: m[8] = %v", got)
	}
}
