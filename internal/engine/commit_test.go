package engine

import "testing"

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
// copy-on-write leaf, publish and retire. The write session's
// bookkeeping lives on the captured frames and in small slices, so what
// remains is the row image, the session objects and the catalog
// version; a map per capture or per session shows up here.
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
	if allocs > 8 {
		t.Errorf("one-row Insert makes %.1f allocations, want <= 8", allocs)
	}
}

// BenchmarkOneRowCommit is the cost of a one-row autocommit Insert on a
// database without a log: the engine's commit path (capture,
// copy-on-write, publish, version retirement) with no device or WAL
// time in it. Table 1's fixture loads 800 000 rows this way.
func BenchmarkOneRowCommit(b *testing.B) {
	tbl := oneRowTable(b)
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
