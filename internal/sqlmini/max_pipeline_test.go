package sqlmini

import (
	"fmt"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// maxDB builds a table with a VARBINARY(MAX) array column mixing
// single-chunk blobs (the zero-copy resolve path), multi-chunk blobs
// (the copying fallback) and a NULL, plus a UDF that consumes the
// materialized array payload.
func maxDB(t testing.TB) *engine.DB {
	// Raw chunk format: the tests here assert exact chunk-page counts
	// that depend on the fixed ChunkSize geometry.
	return maxDBOpts(t, engine.Options{DisableBlobCompression: true})
}

func maxDBOpts(t testing.TB, opts engine.Options) *engine.DB {
	t.Helper()
	db := engine.NewDB(opts)
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
			big, err := core.FromFloat64s(core.Max, core.Float64, seq(2500, float64(i)), 2500)
			if err != nil {
				t.Fatal(err)
			}
			av = engine.BinaryMaxValue(big.Bytes())
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

func seq(n int, base float64) []float64 {
	// Tiny increments on a large base: the values stay distinct (the
	// goldens exercise real sums) while consecutive elements share their
	// high mantissa bytes, so the XOR codec path has something to
	// compress when the store is opened with compression on.
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + base + float64(i)/(1<<20)
	}
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
// against two stores holding identical logical data — one on the raw
// chunk format, one with per-chunk compression (the engine default) —
// and asserts every query returns identical results through every
// pipeline, with no pins leaked by the compressed read paths.
func TestMaxColumnCompressedGoldenEquivalence(t *testing.T) {
	rawDB := maxDB(t)
	compDB := maxDBOpts(t, engine.Options{})
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{BatchSize: 3}},
		{"parallel", ExecOptions{Parallelism: 4, ParallelThreshold: 1}},
	}
	for _, q := range maxGoldenQueries {
		want, err := referenceRun(rawDB, q)
		if err != nil {
			t.Fatalf("raw reference(%q): %v", q, err)
		}
		gotRef, err := referenceRun(compDB, q)
		if err != nil {
			t.Fatalf("compressed reference(%q): %v", q, err)
		}
		if diff := resultEq(want, gotRef); diff != "" {
			t.Errorf("compressed reference(%q): %s", q, diff)
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
	if st := compDB.Blobs().Stats(); st.CompressedBytesWritten == 0 {
		t.Error("compressed store wrote no compressed chunks; suite compared nothing")
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
