package sqlarray

import (
	"math"
	"testing"
	"time"

	"sqlarray/internal/obs"
)

// memDatabase opens an in-memory database without a log.
func memDatabase(t testing.TB) *Database {
	t.Helper()
	db, err := OpenDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// metric reads one series of a metrics registry. A name the registry
// does not hold fails the test, so a misspelt name cannot pass an == 0
// check.
func metric(t testing.TB, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metrics registry has no series %q", name)
	}
	return v
}

// TestMetricsCarryEveryCounter: the registry is the one place to read
// the buffer pool's, the blob store's and the UDF boundary's counters,
// so a fresh database's registry holds every one of them.
func TestMetricsCarryEveryCounter(t *testing.T) {
	snap := memDatabase(t).Metrics().Snapshot()
	for _, name := range []string{
		"pages.logical_reads", "pages.physical_reads", "pages.bytes_read",
		"pages.writes", "pages.bytes_written", "pages.evictions",
		"pages.admissions", "pages.promotions", "pages.scan_evictions",
		"pages.cow_copies", "pages.snapshot_reads", "pages.versions_retired",
		"blob.directory_reads", "blob.chunk_reads", "blob.bytes_read",
		"blob.chunks_written", "blob.bytes_written", "blob.pages_freed",
		"blob.pages_reused", "blob.stored_bytes_written", "blob.stored_bytes_read",
		"udf.calls", "udf.bytes_marshaled",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("registry has no series %q", name)
		}
	}
}

func TestFacadeArrayConstruction(t *testing.T) {
	a := Vector(1, 2, 3, 4, 5)
	if a.Class() != Short || a.ElemType() != Float64 || a.Len() != 5 {
		t.Fatalf("Vector: %v %v %d", a.Class(), a.ElemType(), a.Len())
	}
	v, err := a.Item(3)
	if err != nil || v != 4 {
		t.Errorf("Item(3) = %g, %v", v, err)
	}
	m, err := Matrix(2, 2, 0.1, 0.2, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Item(1, 0); v != 0.2 {
		t.Errorf("Matrix item = %g", v)
	}
	b, err := Wrap(a.Bytes())
	if err != nil || !a.Equal(b) {
		t.Errorf("Wrap roundtrip: %v", err)
	}
	p, err := Parse(Float64, "[1,2,3]")
	if err != nil || p.Len() != 3 {
		t.Errorf("Parse: %v", err)
	}
	if s := Format(p); s != "[1,2,3]" {
		t.Errorf("Format = %q", s)
	}
}

func TestDatabaseQueryThroughFacade(t *testing.T) {
	db := memDatabase(t)
	got, err := db.QueryScalarFloat(
		"SELECT FloatArray.Item_1(FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0), 3) FROM dual")
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("paper example = %g, want 4", got)
	}
	// Non-scalar results still accessible through Query.
	res, err := db.Query("SELECT id FROM dual")
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("Query: %v, %v", res, err)
	}
	if _, err := db.QueryScalarFloat("SELECT broken FROM dual"); err == nil {
		t.Error("bad query must fail")
	}
}

// TestTable1Queries runs the five §6.3 queries cold and checks what is
// deterministic about them: the values, the UDF boundary crossings
// (none on Q1–Q3, one per row on Q4/Q5) and the bytes each scan reads.
// Timing is bench/'s table1_scan workload.
func TestTable1Queries(t *testing.T) {
	db := memDatabase(t)
	const rows = 5_000
	if err := SetupTable1(db, rows); err != nil {
		t.Fatal(err)
	}
	var value [5]float64
	var calls, bytesRead [5]uint64
	for q, sql := range Table1Queries {
		if err := db.DropCleanBuffers(); err != nil {
			t.Fatal(err)
		}
		c0, b0 := metric(t, db.Metrics(), "udf.calls"), metric(t, db.Metrics(), "pages.bytes_read")
		v, err := db.QueryScalarFloat(sql)
		if err != nil {
			t.Fatalf("query %d: %v", q+1, err)
		}
		value[q] = v
		calls[q] = metric(t, db.Metrics(), "udf.calls") - c0
		bytesRead[q] = metric(t, db.Metrics(), "pages.bytes_read") - b0
	}
	// Counts equal rows, sums match across layouts.
	if value[0] != rows || value[1] != rows {
		t.Errorf("counts = %g, %g", value[0], value[1])
	}
	if math.Abs(value[2]-value[3]) > 1e-9 {
		t.Errorf("SUM(v1) %g != SUM(Item_1(v,0)) %g", value[2], value[3])
	}
	if value[4] != 0 {
		t.Errorf("empty-UDF sum = %g", value[4])
	}
	if want := [5]uint64{0, 0, 0, rows, rows}; calls != want {
		t.Errorf("UDF calls = %v, want %v", calls, want)
	}
	// The vector count scan reads more bytes than the scalar one
	// (bigger table, §6.2).
	if bytesRead[0] == 0 || bytesRead[1] <= bytesRead[0] {
		t.Errorf("cold scan bytes: Tscalar %d, Tvector %d", bytesRead[0], bytesRead[1])
	}
}

func TestTable1StorageOverhead(t *testing.T) {
	db := memDatabase(t)
	if err := SetupTable1(db, 20_000); err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareTable1Storage(db)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: the vector table is bigger due to per-row array headers.
	// Our rows: scalar = 6 null bytes + 6×8 = 54 B; vector = 2 null
	// bytes + 8 + 2 + (24 hdr + 40 data) = 76 B → ratio ≈ 1.41.
	if cmp.ByteRatio < 1.2 || cmp.ByteRatio > 1.7 {
		t.Errorf("byte ratio = %.3f, want ~1.4 (paper: 1.43)", cmp.ByteRatio)
	}
	if cmp.PageRatio <= 1 {
		t.Errorf("page ratio = %.3f, want > 1", cmp.PageRatio)
	}
	if cmp.ScalarStats.Rows != 20_000 || cmp.VectorStats.Rows != 20_000 {
		t.Error("row counts wrong")
	}
}

func TestDeriveUDFCost(t *testing.T) {
	const rows = 1000
	ms := make([]QueryMeasurement, 5)
	ms[2].CPU = 10 * time.Millisecond // Q3: plain SUM
	ms[3].CPU = 25 * time.Millisecond // Q4: Item_1 UDF
	ms[4].CPU = 20 * time.Millisecond // Q5: empty UDF
	got, err := DeriveUDFCost(ms, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := UDFCostBreakdown{
		Rows:                rows,
		PerCallCost:         15 * time.Microsecond, // (25−10) ms / 1000
		PerEmptyCallCost:    10 * time.Microsecond, // (20−10) ms / 1000
		EmptyCallShare:      0.5,                   // (20−10) / 20
		ExtractionIncrement: 0.25,                  // (25−20) / 20
	}
	if got != want {
		t.Errorf("DeriveUDFCost = %+v, want %+v", got, want)
	}
	if _, err := DeriveUDFCost(ms[:3], rows); err == nil {
		t.Error("short measurement list must fail")
	}
}

// TestTable1BoundaryAccounting pins what Q4 and Q5 are charged at the
// UDF boundary: one call per row and, per call, the argument frame (the
// 64-byte array blob with its 5-byte binary header, the 9-byte BIGINT
// index) plus the 9-byte FLOAT result frame — 87 bytes, the same as when
// every row crossed the boundary on its own. The table is large enough
// that the default batch size splits it into many batches and that
// Parallelism 2 runs the aggregate on two workers.
func TestTable1BoundaryAccounting(t *testing.T) {
	db := memDatabase(t)
	const rows = 10_000
	if err := SetupTable1(db, rows); err != nil {
		t.Fatal(err)
	}
	const perCall = (1 + 4 + 24 + 5*8) + (1 + 8) + (1 + 8)
	for _, q := range []int{3, 4} {
		for _, opts := range []ExecOptions{{Parallelism: 1}, {Parallelism: 2}} {
			calls, bytes := metric(t, db.Metrics(), "udf.calls"), metric(t, db.Metrics(), "udf.bytes_marshaled")
			if _, err := db.QueryWith(Table1Queries[q], opts); err != nil {
				t.Fatal(err)
			}
			if got := metric(t, db.Metrics(), "udf.calls") - calls; got != rows {
				t.Errorf("Q%d %+v: %d calls, want %d", q+1, opts, got, rows)
			}
			if got := metric(t, db.Metrics(), "udf.bytes_marshaled") - bytes; got != rows*perCall {
				t.Errorf("Q%d %+v: %d bytes marshaled, want %d", q+1, opts, got, rows*perCall)
			}
		}
	}
}

// TestTable1AllocationsPerRow is the deterministic guard on the per-row
// fixed cost of the UDF queries. The buffer pool's hit path allocates
// nothing (its LRU links live in the frames), but the scan still
// allocates per batch and per query, so the UDF queries are held
// against Q2, the bare scan of the same table: evaluating the UDF over every row may add at most one
// allocation per hundred rows (it was 5 per row for Q4 and 2 for Q5 when
// every row crossed the boundary on its own). Q3 is held the same way
// against Q1 (it measured 384 against Q1's 381 then; a column vector and
// its accumulator are a handful of allocations per query, not per row).
func TestTable1AllocationsPerRow(t *testing.T) {
	db := memDatabase(t)
	const rows = 20_000
	if err := SetupTable1(db, rows); err != nil {
		t.Fatal(err)
	}
	var allocs [5]float64
	for q, sql := range Table1Queries {
		allocs[q] = testing.AllocsPerRun(5, func() {
			if _, err := db.QueryWith(sql, ExecOptions{Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations per query over %d rows, Q1..Q5: %v", rows, allocs)
	for _, q := range []int{3, 4} {
		if extra := allocs[q] - allocs[1]; extra > 0.01*rows {
			t.Errorf("Q%d allocates %.0f more than Q2's scan of the same %d rows, want <= %.0f",
				q+1, extra, rows, 0.01*rows)
		}
	}
	if extra := allocs[2] - allocs[0]; extra > 8 {
		t.Errorf("Q3 allocates %.0f more than Q1's scan of the same table, want <= 8", extra)
	}
}
