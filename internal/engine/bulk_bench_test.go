package engine

import (
	"testing"
	"time"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// benchDB opens a WAL-backed database sized like the test databases.
func benchDB(tb testing.TB) *DB {
	tb.Helper()
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := Open(Options{Disk: pages.NewMemDisk(), PoolPages: 2048, WAL: l})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

func benchSchema(tb testing.TB) Schema {
	tb.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "x", Type: ColFloat64},
		Column{Name: "y", Type: ColFloat64},
		Column{Name: "z", Type: ColFloat64},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchRows(n int) [][]Value {
	rows := make([][]Value, n)
	for i := range rows {
		f := float64(i)
		rows[i] = []Value{IntValue(int64(i)), FloatValue(f), FloatValue(f * 2), FloatValue(f * 3)}
	}
	return rows
}

// rowBytesOf sums the encoded size of the fixed-width bench rows for
// the MB/s metric (4 columns × 8 bytes plus the row header).
func rowBytesOf(tb testing.TB, schema *Schema, rows [][]Value) int64 {
	tb.Helper()
	var total int64
	enc, err := encodeRow(schema, rows[0])
	if err != nil {
		tb.Fatal(err)
	}
	total = int64(len(enc)) * int64(len(rows))
	return total
}

// BenchmarkBulkLoad compares the COPY path against the row-at-a-time
// INSERT loop it replaces: identical rows into a fresh WAL-backed table
// per iteration. The insert loop pays a full write session — begin, WAL
// commit record, WAL sync, snapshot publish — per row; the
// bulk path stages everything and commits once.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 10000
	rows := benchRows(n)
	schema := benchSchema(b)
	bytes := rowBytesOf(b, &schema, rows)

	b.Run("insert", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			db := benchDB(b)
			tbl, err := db.CreateTable("t", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			b.StartTimer()
			for _, r := range rows {
				if err := tbl.Insert(r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/time.Since(start).Seconds(), "rows/s")
		}
	})
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			db := benchDB(b)
			tbl, err := db.CreateTable("t", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			b.StartTimer()
			if _, err := tbl.BulkLoad(NewValuesSource(rows), BulkOptions{}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/time.Since(start).Seconds(), "rows/s")
		}
	})
}

// TestBulkLoadSpeedup is the acceptance check behind BenchmarkBulkLoad:
// the COPY path must beat the row-at-a-time INSERT loop by at least an
// order of magnitude on identical data. Wall-clock ratios this large
// are stable even on noisy CI machines — the insert loop pays ~n write
// sessions of WAL and publish overhead that the bulk path pays once.
func TestBulkLoadSpeedup(t *testing.T) {
	const n = 5000
	rows := benchRows(n)

	db := benchDB(t)
	tbl, err := db.CreateTable("t", benchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	insertDur := time.Since(start)

	db2 := benchDB(t)
	tbl2, err := db2.CreateTable("t", benchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := tbl2.BulkLoad(NewValuesSource(rows), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	copyDur := time.Since(start)

	if tbl.Rows() != tbl2.Rows() {
		t.Fatalf("row counts diverge: %d vs %d", tbl.Rows(), tbl2.Rows())
	}
	speedup := float64(insertDur) / float64(copyDur)
	t.Logf("insert loop %v, bulk load %v: %.1fx", insertDur, copyDur, speedup)
	if speedup < 10 {
		t.Errorf("bulk load only %.1fx faster than insert loop, want >= 10x", speedup)
	}
}
