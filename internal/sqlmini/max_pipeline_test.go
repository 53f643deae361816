package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// maxDB builds a table with a VARBINARY(MAX) array column mixing
// single-chunk blobs (the zero-copy resolve path), multi-chunk blobs
// (the copying fallback) and a NULL, plus a UDF that consumes the
// materialized array payload.
func maxDB(t testing.TB) *engine.DB {
	// Incompressible multi-chunk arrays, which the blob writer stores
	// raw: the tests here assert exact chunk-page counts that depend on
	// the fixed ChunkSize geometry.
	return maxDBWith(t, noise)
}

// maxDBWith is maxDB with the multi-chunk arrays' elements drawn from
// big(n, base), which decides the chunk format the writer picks.
func maxDBWith(t testing.TB, big func(n int, base float64) []float64) *engine.DB {
	t.Helper()
	db := engine.NewMemDB()
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "a", Type: engine.ColVarBinaryMax},
		engine.Column{Name: "w", Type: engine.ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("cubes", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		var av engine.Value
		switch {
		case i%7 == 3:
			av = engine.Null
		case i%5 == 0:
			// Multi-chunk: 2500 floats = 20 kB, three chunk pages.
			av = engine.BinaryMaxValue(bigArray(t, big, i).Bytes())
		default:
			// Single chunk: a short 5-vector stored out of page.
			av = engine.BinaryMaxValue(core.Vector(float64(i), 1, 2, 3, 4).Bytes())
		}
		err := tbl.Insert([]engine.Value{
			engine.IntValue(i), av, engine.FloatValue(float64(i % 11)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Funcs().Register("arr.Sum", 1, func(args []engine.Value) (engine.Value, error) {
		if args[0].IsNull() {
			return engine.Null, nil
		}
		a, err := core.Wrap(args[0].B)
		if err != nil {
			return engine.Null, fmt.Errorf("arr.Sum: %w", err)
		}
		sum := 0.0
		for _, f := range a.Float64s() {
			sum += f
		}
		return engine.FloatValue(sum), nil
	})
	db.Funcs().Register("arr.Len", 1, func(args []engine.Value) (engine.Value, error) {
		if args[0].IsNull() {
			return engine.IntValue(0), nil
		}
		return engine.IntValue(int64(len(args[0].B))), nil
	})
	return db
}

// bigArray is row i's multi-chunk value: 2500 floats = 20 kB, three raw
// chunk pages.
func bigArray(t testing.TB, big func(n int, base float64) []float64, i int64) *core.Array {
	t.Helper()
	a, err := core.FromFloat64s(core.Max, core.Float64, big(2500, float64(i)), 2500)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func seq(n int, base float64) []float64 {
	// Tiny increments on a large base: the values stay distinct (the
	// goldens exercise real sums) while consecutive elements share their
	// high mantissa bytes, so the XOR codec packs them into fewer pages.
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + base + float64(i)/(1<<20)
	}
	return out
}

func noise(n int, base float64) []float64 {
	// Seeded random mantissas in [1, 2): consecutive elements share 12
	// of 64 bits, too few for the packed form to save one of the three
	// pages, so the writer stores the array raw. The last element tops
	// the running sum up to an integer — exactly, both being multiples
	// of 2^-41 below 2^13 — so the goldens' SUM over arr.Sum(a) does not
	// depend on the order the parallel scan adds rows in.
	rng := rand.New(rand.NewSource(int64(base)))
	out := make([]float64, n)
	sum := 0.0
	for i := range out[:n-1] {
		out[i] = math.Float64frombits(0x3FF<<52 | rng.Uint64()>>12)
		sum += out[i]
	}
	out[n-1] = 4096 + base - sum
	return out
}

// maxGoldenQueries exercises MAX-column materialization in every
// expression position: UDF argument, aggregate argument, projection,
// residual filter, under TOP, and mixed with the parallel aggregate
// scan shape.
var maxGoldenQueries = []string{
	"SELECT id, arr.Len(a) FROM cubes",
	"SELECT id, arr.Sum(a) FROM cubes WHERE id < 9",
	"SELECT SUM(arr.Sum(a)) FROM cubes",
	"SELECT COUNT(*) FROM cubes WHERE arr.Len(a) > 100",
	"SELECT a FROM cubes WHERE id = 2",
	"SELECT a FROM cubes WHERE id = 3", // NULL blob
	"SELECT a FROM cubes WHERE id = 5", // multi-chunk blob
	"SELECT TOP 4 id, a FROM cubes",
	"SELECT TOP 3 arr.Sum(a) FROM cubes WHERE w >= 2",
	"SELECT SUM(arr.Len(a) + w) FROM cubes WHERE id >= 10 AND id <= 30",
}

// TestMaxColumnGoldenEquivalence asserts that MAX-column queries return
// identical results across the reference executor (copying blob reads)
// and the default, tiny-batch and parallel pipelines (resolving refs
// zero-copy off pinned chunk pages), and that no strategy leaks a pin.
func TestMaxColumnGoldenEquivalence(t *testing.T) {
	db := maxDB(t)
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{BatchSize: 3}},
		{"parallel", ExecOptions{Parallelism: 4, ParallelThreshold: 1}},
	}
	for _, q := range maxGoldenQueries {
		want, err := referenceRun(db, q)
		if err != nil {
			t.Fatalf("reference(%q): %v", q, err)
		}
		for _, m := range modes {
			got, err := RunWith(db, q, m.opts)
			if err != nil {
				t.Fatalf("%s Run(%q): %v", m.name, q, err)
			}
			if diff := resultEq(want, got); diff != "" {
				t.Errorf("%s Run(%q): %s", m.name, q, diff)
			}
			if got := db.Pool().PinnedFrames(); got != 0 {
				t.Fatalf("%s %q: PinnedFrames after Run = %d, want 0", m.name, q, got)
			}
		}
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after MAX golden suite: %v", err)
	}
}

// TestMaxColumnCompressedGoldenEquivalence runs the MAX golden suite
// against a store whose multi-chunk arrays are compressible — so the
// writer packs them — and asserts that every pipeline returns what the
// reference executor returns, that the stored arrays read back
// byte-identical to what was inserted, and that the compressed read
// paths leak no pins.
func TestMaxColumnCompressedGoldenEquivalence(t *testing.T) {
	compDB := maxDBWith(t, seq)
	if st := compDB.Blobs().Stats(); st.CompressedBytesWritten == 0 {
		t.Fatal("store wrote no compressed chunks; suite would compare nothing")
	}
	for i := int64(0); i < 40; i += 5 {
		if i%7 == 3 {
			continue
		}
		res, err := Run(compDB, fmt.Sprintf("SELECT a FROM cubes WHERE id = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if want := bigArray(t, seq, i).Bytes(); !bytes.Equal(res.Rows[0][0].B, want) {
			t.Errorf("row %d: compressed array does not read back byte-identical", i)
		}
	}
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{BatchSize: 3}},
		{"parallel", ExecOptions{Parallelism: 4, ParallelThreshold: 1}},
	}
	for _, q := range maxGoldenQueries {
		want, err := referenceRun(compDB, q)
		if err != nil {
			t.Fatalf("compressed reference(%q): %v", q, err)
		}
		for _, m := range modes {
			got, err := RunWith(compDB, q, m.opts)
			if err != nil {
				t.Fatalf("compressed %s Run(%q): %v", m.name, q, err)
			}
			if diff := resultEq(want, got); diff != "" {
				t.Errorf("compressed %s Run(%q): %s", m.name, q, diff)
			}
			if got := compDB.Pool().PinnedFrames(); got != 0 {
				t.Fatalf("compressed %s %q: PinnedFrames after Run = %d, want 0", m.name, q, got)
			}
		}
	}
}

// TestMaxColumnEarlyCloseReleasesPins abandons a streaming MAX query
// mid-batch (zero-copy pins live) and checks Close releases everything.
func TestMaxColumnEarlyCloseReleasesPins(t *testing.T) {
	db := maxDB(t)
	rows, err := Query(db, "SELECT id, a FROM cubes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatal("short stream")
		}
	}
	keep := rows.Row()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames after mid-stream Close = %d, want 0", got)
	}
	// The yielded row was materialized by the projection; its payload
	// must stay intact after the pins are gone.
	if len(keep) != 2 || keep[1].Kind != engine.ColVarBinaryMax {
		t.Fatalf("retained row = %v", keep)
	}
	if _, err := core.Wrap(keep[1].B); err != nil {
		t.Fatalf("retained MAX payload corrupt after Close: %v", err)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers: %v", err)
	}
}

// TestMaxColumnZeroCopyTouchesFewerBytes pins down that the batch
// pipeline's MAX resolve actually goes through the zero-copy path for
// single-chunk blobs: with every array blob on one chunk, the query
// must not copy payload bytes through the blob store's copying reads
// (BytesRead counts copied bytes on ReadAll/ReadAt, and pinned-view
// bytes on the view path — equal totals — so instead assert ChunkReads
// equals the blob count rather than a multiple of it).
func TestMaxColumnZeroCopyTouchesFewerBytes(t *testing.T) {
	db := maxDB(t)
	before := db.Blobs().Stats().ChunkReads
	res, err := Run(db, "SELECT COUNT(*) FROM cubes WHERE arr.Len(a) > 0")
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Scalar()
	if err != nil || v.I == 0 {
		t.Fatalf("scalar = %v, %v", v, err)
	}
	chunkReads := db.Blobs().Stats().ChunkReads - before
	if chunkReads == 0 {
		t.Fatal("expected chunk reads")
	}
	// 40 rows: 6 null (i%7==3), 7 multi-chunk (i%5==0 minus the overlap
	// at i=10, 3 chunks each), 27 single-chunk. One pass must touch
	// 27 + 7*3 = 48 chunks, once each.
	if chunkReads != 48 {
		t.Errorf("ChunkReads = %d, want 48 (each blob chunk touched once)", chunkReads)
	}
}
