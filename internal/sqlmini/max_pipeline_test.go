package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// RegisterTSQL installs the T-SQL array function surface
// (tsql.RegisterAll). tsql imports this package, so it is set from the
// external test package (tsql_hook_test.go).
var RegisterTSQL func(db *engine.DB)

// maxDB builds a table with a VARBINARY(MAX) array column mixing
// single-chunk blobs, multi-chunk blobs and a NULL, plus UDFs that
// consume the materialized array payload and the T-SQL functions.
func maxDB(t testing.TB) *engine.DB {
	// Incompressible multi-chunk arrays, which the blob writer stores as
	// raw blocks: the tests here assert exact chunk-page counts that
	// depend on the fixed BlockSize geometry.
	return maxDBWith(t, memDB(t), noise)
}

// maxDBWith builds maxDB's table and UDFs in db, with the multi-chunk
// arrays' elements drawn from big(n, base), which decides the chunk
// format the writer picks.
func maxDBWith(t testing.TB, db *engine.DB, big func(n int, base float64) []float64) *engine.DB {
	t.Helper()
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
	RegisterTSQL(db)
	return db
}

// bigArray is row i's multi-chunk value: 2500 floats = 20 kB, three
// chunk pages of raw blocks.
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
// identical results across the reference executor (row at a time) and
// the default, tiny-batch and parallel pipelines (a batch of refs
// resolved per expression node), and that no strategy leaks a pin.
func TestMaxColumnGoldenEquivalence(t *testing.T) {
	db := maxDB(t)
	modes := []struct {
		name string
		opts ExecOptions
	}{
		{"batch", ExecOptions{}},
		{"batch3", ExecOptions{batchSize: 3}},
		{"parallel", ExecOptions{Parallelism: 4, parallelThreshold: 1}},
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
	compDB := maxDBWith(t, memDB(t), seq)
	if metric(t, compDB.Metrics(), "blob.stored_bytes_written") >= metric(t, compDB.Metrics(), "blob.bytes_written") {
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
		{"batch3", ExecOptions{batchSize: 3}},
		{"parallel", ExecOptions{Parallelism: 4, parallelThreshold: 1}},
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
// mid-batch (the scan's leaf still pinned) and checks Close releases
// everything.
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
	// must stay intact after the pipeline is gone.
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

// TestMaxColumnReadsEachChunkOnce pins down that the batch pipeline's
// MAX resolve reads every blob chunk the query needs exactly once:
// ChunkReads equals the number of chunk pages behind the non-NULL
// arrays, not a multiple of it (BytesRead alone could not tell a second
// pass over a chunk from a first).
func TestMaxColumnReadsEachChunkOnce(t *testing.T) {
	db := maxDB(t)
	before := metric(t, db.Metrics(), "blob.chunk_reads")
	res, err := Run(db, "SELECT COUNT(*) FROM cubes WHERE arr.Len(a) > 0")
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Scalar()
	if err != nil || v.I == 0 {
		t.Fatalf("scalar = %v, %v", v, err)
	}
	chunkReads := metric(t, db.Metrics(), "blob.chunk_reads") - before
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

// pinWatch turns the pin invariant into a probe: observe, called from
// inside a UDF, records how many buffer-pool frames are pinned while the
// statement evaluates. Every read — a blob resolve, a leaf hop — holds
// its page for the length of its own call only, so under a serial plan
// what stays pinned at that moment is the scan's leaf and nothing else.
//
// Under a parallel plan the other workers keep reading while the probe
// counts, and PinnedFrames locks one pool stripe at a time: a worker
// stepping from a page in one stripe to a page in another can be
// counted twice. The count is an upper bound on the pins held at one
// instant only on a single-stripe pool (fewer than 128 frames), where
// no page can be pinned while the count holds the stripe lock.
type pinWatch struct {
	db   *engine.DB
	peak atomic.Int64
}

// observe records the current pin count and returns it.
func (w *pinWatch) observe() int64 {
	n := int64(w.db.Pool().PinnedFrames())
	for {
		old := w.peak.Load()
		if n <= old || w.peak.CompareAndSwap(old, n) {
			return n
		}
	}
}

// take returns the peak observed since the previous take and resets it.
func (w *pinWatch) take() int64 { return w.peak.Swap(0) }

// TestReadsHoldNoPinsPastTheRead asserts, from inside the evaluation,
// that resolving a MAX column leaves no chunk page pinned: while a UDF
// over the resolved values runs, the only pinned frames are the open
// scans' leaves — at most one for a serial plan, however many rows the
// batch has resolved and whichever side of AND/OR the UDF sits on. A
// parallel aggregate's P workers may add, besides their own leaves, the
// one page each other worker's read in flight holds: 2P-1. The pool is
// kept to one stripe so the parallel count is exact (see pinWatch).
func TestReadsHoldNoPinsPastTheRead(t *testing.T) {
	small, err := engine.Open(engine.Options{PoolPages: 120})
	if err != nil {
		t.Fatal(err)
	}
	db := maxDBWith(t, small, noise)
	if n := db.Pool().Shards(); n != 1 {
		t.Fatalf("pool has %d stripes; the parallel bound needs one", n)
	}
	w := &pinWatch{db: db}
	var probes atomic.Int64
	db.Funcs().Register("pins.Probe", 1, func([]engine.Value) (engine.Value, error) {
		probes.Add(1)
		return engine.IntValue(w.observe()), nil
	})
	// pins.ReadProbe is an array function: it counts the pins after its
	// reader has read the header (a MAX column reaches it as a ref).
	db.Funcs().RegisterArray("pins.ReadProbe", 1, func(r *engine.ArrayReader, _ []engine.Value) (engine.Value, error) {
		if _, err := r.Header(); err != nil {
			return engine.Null, err
		}
		probes.Add(1)
		return engine.IntValue(w.observe()), nil
	})
	serial, batch3 := ExecOptions{}, ExecOptions{batchSize: 3}
	parallel := ExecOptions{Parallelism: 2, parallelThreshold: 1}
	for _, c := range []struct {
		sql   string
		opts  ExecOptions
		bound int64
	}{
		{"SELECT id, pins.Probe(a) FROM cubes", serial, 1},
		{"SELECT id, pins.Probe(a) FROM cubes", batch3, 1},
		// The right operand runs over the rows the left leaves
		// undecided, gathered into a scratch batch: the multi-chunk
		// arrays under AND, the rest under OR.
		{"SELECT id FROM cubes WHERE arr.Len(a) > 100 AND pins.Probe(a) >= 0", serial, 1},
		{"SELECT id FROM cubes WHERE arr.Len(a) > 100 OR pins.Probe(a) >= 0", serial, 1},
		{"SELECT id FROM cubes WHERE arr.Len(a) > 100 OR pins.Probe(a) >= 0", batch3, 1},
		{"SELECT MAX(pins.Probe(a)) FROM cubes", serial, 1},
		{"SELECT MAX(pins.Probe(a)) FROM cubes", parallel, 2*2 - 1},
		// An array function reads a through its blob ref; the reader
		// it was handed holds nothing once the call returns. (The
		// filter keeps the max-class arrays: FloatArrayMax rejects the
		// short 5-vectors and the NULLs.)
		{"SELECT id, pins.ReadProbe(a) FROM cubes WHERE arr.Len(a) > 0", serial, 1},
		{"SELECT id, FloatArrayMax.Item_1(a, 0), pins.Probe(a) FROM cubes WHERE arr.Len(a) > 100", serial, 1},
		{"SELECT id, FloatArrayMax.Length(FloatArrayMax.Subarray(a, IntArray.Vector_1(2000), IntArray.Vector_1(100), 0)), pins.Probe(a) FROM cubes WHERE arr.Len(a) > 100", serial, 1},
		{"SELECT id, FloatArrayMax.Item_1(a, 0), pins.Probe(a) FROM cubes WHERE arr.Len(a) > 100", batch3, 1},
		{"SELECT MAX(FloatArrayMax.Item_1(a, 0) + pins.Probe(a)) FROM cubes WHERE arr.Len(a) > 100", parallel, 2*2 - 1},
	} {
		w.take()
		probes.Store(0)
		if _, err := RunWith(db, c.sql, c.opts); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if probes.Load() == 0 {
			t.Fatalf("%s: the probe never ran", c.sql)
		}
		if peak := w.take(); peak > c.bound {
			t.Errorf("%s (batchSize %d, Parallelism %d): %d frames pinned while the probe ran, want <= %d",
				c.sql, c.opts.batchSize, c.opts.Parallelism, peak, c.bound)
		}
		if got := db.Pool().PinnedFrames(); got != 0 {
			t.Fatalf("%s: PinnedFrames after Run = %d, want 0", c.sql, got)
		}
	}
}

// TestMaxRefItemReadsHeaderAndElementChunks counts what an array
// function over a MAX column reads: Item_1(a, k) on a three-chunk array
// walks one directory page and fetches the chunk holding the header and
// the chunk holding element k — one chunk when they are the same — and
// Subarray fetches the header's chunk and the chunks its runs overlap.
// What crosses the boundary is the 12-byte ref, not the 20 kB payload.
// The raw-block counts are exact; a compressed blob packs more than one
// block per chunk, so its element may need a second fetch of chunk 0.
func TestMaxRefItemReadsHeaderAndElementChunks(t *testing.T) {
	// Row 5 holds a 2500-element float array: a 20-byte header, then
	// element k at byte 20+8k. Raw blocks put bytes [0, 8064) on chunk 0,
	// [8064, 16128) on chunk 1 and the rest on chunk 2.
	const refFrame = 1 + 12 // kind tag + blob ref
	for _, c := range []struct {
		name string
		big  func(n int, base float64) []float64
		raw  bool
	}{{"raw", noise, true}, {"compressed", seq, false}} {
		db := maxDBWith(t, memDB(t), c.big)
		want := bigArray(t, c.big, 5)
		for _, q := range []struct {
			sql    string
			chunks uint64 // raw blocks
			frame  uint64
		}{
			{"SELECT FloatArrayMax.Item_1(a, 0) FROM cubes WHERE id = 5", 1, refFrame + 9 + 9},
			{"SELECT FloatArrayMax.Item_1(a, 1004) FROM cubes WHERE id = 5", 1, refFrame + 9 + 9},
			{"SELECT FloatArrayMax.Item_1(a, 1005) FROM cubes WHERE id = 5", 2, refFrame + 9 + 9}, // straddles chunks 0 and 1
			{"SELECT FloatArrayMax.Item_1(a, 1500) FROM cubes WHERE id = 5", 2, refFrame + 9 + 9},
			{"SELECT FloatArrayMax.Item_1(a, 2499) FROM cubes WHERE id = 5", 2, refFrame + 9 + 9},
			{"SELECT FloatArrayMax.Length(a) FROM cubes WHERE id = 5", 1, refFrame + 9},
			{"SELECT FloatArrayMax.Subarray(a, IntArray.Vector_1(2100), IntArray.Vector_1(50), 0) FROM cubes WHERE id = 5", 2, 0},
		} {
			names := []string{"blob.directory_reads", "blob.chunk_reads", "udf.calls", "udf.bytes_marshaled"}
			var before [4]uint64
			for i, n := range names {
				before[i] = metric(t, db.Metrics(), n)
			}
			res, err := Run(db, q.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, q.sql, err)
			}
			var moved [4]uint64
			for i, n := range names {
				moved[i] = metric(t, db.Metrics(), n) - before[i]
			}
			dirs, chunks, calls, marshaled := moved[0], moved[1], moved[2], moved[3]
			if dirs != 1 {
				t.Errorf("%s %s: %d directory reads, want 1", c.name, q.sql, dirs)
			}
			switch {
			case c.raw && chunks != q.chunks:
				t.Errorf("%s %s: %d chunk reads, want %d", c.name, q.sql, chunks, q.chunks)
			case !c.raw && (chunks < 1 || chunks > 2 || q.chunks == 1 && chunks != 1):
				t.Errorf("%s %s: %d chunk reads, want 1..2 (1 for the first block)", c.name, q.sql, chunks)
			}
			// Subarray also calls the two index-vector constructors, and
			// its frames carry them and the 400-byte result; only their
			// order of magnitude matters.
			wantCalls := uint64(1)
			if q.frame == 0 {
				wantCalls = 3
			}
			if calls != wantCalls {
				t.Errorf("%s %s: %d UDF calls, want %d", c.name, q.sql, calls, wantCalls)
			}
			if q.frame != 0 && marshaled != q.frame || marshaled > 1024 {
				t.Errorf("%s %s: %d bytes marshaled, want the ref frame (%d)", c.name, q.sql, marshaled, q.frame)
			}
			// The values are the materialized array's.
			got := res.Rows[0][0]
			switch {
			case strings.Contains(q.sql, "Item_1"):
				var k int
				fmt.Sscanf(q.sql[strings.Index(q.sql, "a, ")+3:], "%d", &k)
				if x, _ := want.Item(k); got.Kind != engine.ColFloat64 || got.F != x {
					t.Errorf("%s %s = %v, want %g", c.name, q.sql, got, x)
				}
			case strings.Contains(q.sql, "Length"):
				if got.I != 2500 {
					t.Errorf("%s %s = %v, want 2500", c.name, q.sql, got)
				}
			default:
				sub, err := want.Subarray([]int{2100}, []int{50}, false)
				if err != nil {
					t.Fatal(err)
				}
				sub, _ = sub.ConvertClass(core.Max)
				if got.Kind != engine.ColVarBinaryMax || !bytes.Equal(got.B, sub.Bytes()) {
					t.Errorf("%s %s: result differs from the materialized subarray", c.name, q.sql)
				}
			}
		}
	}
}
