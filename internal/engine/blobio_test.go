package engine

import (
	"bytes"
	"testing"

	"sqlarray/internal/core"
)

// maxTable builds a table with one MAX array column holding a 20x20x20
// float64 cube (a 64 kB, multi-chunk blob) under key 1 and a small 5-vector
// (single-chunk) under key 2.
func maxTable(t *testing.T) (*DB, *Table, *core.Array, *core.Array) {
	t.Helper()
	db := memDB(t)
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "a", Type: ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("cubes", s)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := core.New(core.Max, core.Float64, 20, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cube.Len(); i++ {
		cube.SetFloatAt(i, float64(i))
	}
	vec := core.Vector(1, 2, 3, 4, 5)
	if err := tbl.Insert([]Value{IntValue(1), BinaryMaxValue(cube.Bytes())}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntValue(2), BinaryMaxValue(vec.Bytes())}); err != nil {
		t.Fatal(err)
	}
	return db, tbl, cube, vec
}

func maxRef(t *testing.T, tbl *Table, key int64) []byte {
	t.Helper()
	row, err := tbl.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return row[1].B
}

func TestBlobHeaderReadsPrefixOnly(t *testing.T) {
	db, tbl, cube, _ := maxTable(t)
	ref := maxRef(t, tbl, 1)
	before := metric(t, db.Metrics(), "blob.chunk_reads")
	h, hs, err := tbl.BlobHeader(ref)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rank() != 3 || h.Dims[0] != 20 || h.Elem != core.Float64 {
		t.Errorf("header = %v", h)
	}
	ch := cube.Header()
	if hs != ch.EncodedSize() {
		t.Errorf("header size = %d, want %d", hs, ch.EncodedSize())
	}
	// The cube is 8000 floats = ~64 kB over 8 chunks; the header read
	// must touch only the first chunk (twice: prefix, then full header).
	if got := metric(t, db.Metrics(), "blob.chunk_reads") - before; got > 2 {
		t.Errorf("BlobHeader touched %d chunks, want <= 2", got)
	}
}

func TestBlobSubarrayMatchesInMemory(t *testing.T) {
	db, tbl, cube, _ := maxTable(t)
	ref := maxRef(t, tbl, 1)
	offset, size := []int{1, 4, 6}, []int{5, 5, 3}
	want, err := cube.Subarray(offset, size, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.BlobSubarray(ref, offset, size, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload(), want.Payload()) {
		t.Error("BlobSubarray payload disagrees with in-memory Subarray")
	}
	if got.Rank() != 3 || got.Dim(0) != 5 || got.Dim(2) != 3 {
		t.Errorf("dims = %v", got.Dims())
	}
	// Collapse drops unit dims like the in-memory path.
	col, err := tbl.BlobSubarray(ref, []int{0, 0, 0}, []int{20, 1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if col.Rank() != 1 || col.Dim(0) != 20 {
		t.Errorf("collapsed dims = %v", col.Dims())
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}

// TestBlobSubarrayTouchesFewerChunksThanReadAll is the engine-level
// acceptance check for the pushdown: slicing a small corner of a stored
// cube must read strictly fewer chunk pages than materializing it.
func TestBlobSubarrayTouchesFewerChunksThanReadAll(t *testing.T) {
	db, tbl, _, _ := maxTable(t)
	ref := maxRef(t, tbl, 1)
	start := metric(t, db.Metrics(), "blob.chunk_reads")
	if _, err := resolveMax(tbl, ref); err != nil {
		t.Fatal(err)
	}
	whole := metric(t, db.Metrics(), "blob.chunk_reads") - start
	start = metric(t, db.Metrics(), "blob.chunk_reads")
	if _, err := tbl.BlobSubarray(ref, []int{0, 0, 0}, []int{4, 4, 1}, false); err != nil {
		t.Fatal(err)
	}
	sliced := metric(t, db.Metrics(), "blob.chunk_reads") - start
	if sliced >= whole {
		t.Errorf("BlobSubarray touched %d chunks, ResolveMax touched %d — pushdown not effective",
			sliced, whole)
	}
}

// TestVisitBlobRunsAtMatchesSubarray reads a subarray's byte runs in
// place through a snapshot and checks them against the in-memory slice.
func TestVisitBlobRunsAtMatchesSubarray(t *testing.T) {
	db, tbl, cube, _ := maxTable(t)
	ref := maxRef(t, tbl, 1)
	h := cube.Header()
	offset, size := []int{2, 3, 4}, []int{4, 2, 2}
	runs, err := core.SubarrayPlan(h, offset, size)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.Subarray(offset, size, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Release()
	got := make([]byte, len(want.Payload()))
	err = tbl.VisitBlobRunsAt(snap, ref, blobRuns(runs, h.EncodedSize()), func(dstOff int, seg []byte) {
		copy(got[dstOff:], seg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Payload()) {
		t.Error("visited run bytes disagree with the in-memory Subarray")
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}
