package engine

import (
	"bytes"
	"math"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// compressibleArray builds a Max float64 array whose values are a small
// fluctuation on a large mean — the XOR-delta codec's favorable case —
// so the engine's default write path actually stores compressed chunks.
func compressibleArray(t *testing.T, n int, seed float64) *core.Array {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1000.0 + math.Sin(float64(i)/37.0+seed)*1e-9
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRecoverCompressedBlobByteExact is the compressed-format
// crash-recovery contract: commit compressed blob writes (including an
// in-place subarray patch over compressed chunks), tear a page during a
// checkpoint, crash, and recover — every payload must replay to
// byte-identical contents and the recovered blobs must still be in the
// compressed layout.
func TestRecoverCompressedBlobByteExact(t *testing.T) {
	mem := pages.NewMemDisk()
	fd := pages.NewFaultDisk(mem)
	st := wal.NewMemStorage()
	db := openDB(t, fd, st) // compression on by default
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const mCol = 2
	const elems = 16000 // 128 kB logical payload per row
	want := map[int64][]byte{}
	for i := int64(0); i < 6; i++ {
		a := compressibleArray(t, elems, float64(i))
		want[i] = append([]byte(nil), a.Bytes()...)
		if err := tbl.Insert([]Value{
			IntValue(i), FloatValue(float64(i)), BinaryMaxValue(a.Bytes()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	bs := db.Blobs().Stats()
	if bs.CompressedBytesWritten == 0 {
		t.Fatal("test premise broken: inserts did not produce compressed chunks")
	}
	if bs.CompressedBytesWritten >= bs.BytesWritten {
		t.Fatalf("compressed %d >= logical %d; payload not compressible", bs.CompressedBytesWritten, bs.BytesWritten)
	}

	// Patch a compressed blob in place (WriteRuns over compressed chunks)
	// and mirror it into the expectation. The patch is incompressible
	// relative to the field, so re-encoded chunks may split.
	patchVals := []float64{math.Pi, -math.E, 1e300, -1e-300}
	patch, err := core.FromFloat64s(core.Short, core.Float64, patchVals, len(patchVals))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateBlobSubarray(2, mCol, []int{8000}, []int{len(patchVals)}, patch); err != nil {
		t.Fatal(err)
	}
	hdr := int64(len(want[2])) - int64(elems*8)
	copy(want[2][hdr+8000*8:], patch.Bytes()[len(patch.Bytes())-len(patchVals)*8:])

	// Whole-blob overwrite of another row.
	a5 := compressibleArray(t, elems, 99)
	want[5] = append([]byte(nil), a5.Bytes()...)
	if err := tbl.Update(5, []int{mCol}, []Value{BinaryMaxValue(a5.Bytes())}); err != nil {
		t.Fatal(err)
	}

	// The checkpoint tears its 4th page write; recovery must reapply the
	// logged (prefix-compressed) after-images over the torn platter.
	fd.FailAfterWrites(3, true)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived an injected torn write")
	}
	if !fd.Fired() {
		t.Fatal("fault never fired")
	}
	st.Crash()
	fd.Heal()

	db2 := openDB(t, fd, st)
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for key, payload := range want {
		vals, err := tbl2.Get(key)
		if err != nil {
			t.Fatalf("Get(%d): %v", key, err)
		}
		got, err := tbl2.ResolveMax(vals[mCol].B, nil)
		if err != nil {
			t.Fatalf("ResolveMax(%d): %v", key, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("row %d: recovered blob not byte-identical (%d vs %d bytes)", key, len(got), len(payload))
		}
	}
	// The recovered store still reads through the compressed path.
	before := db2.Blobs().Stats().CompressedBytesRead
	vals, err := tbl2.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.ResolveMax(vals[mCol].B, nil); err != nil {
		t.Fatal(err)
	}
	if db2.Blobs().Stats().CompressedBytesRead == before {
		t.Error("recovered blob no longer reads as compressed")
	}
	verifyInvariants(t, db2, "t")
}

// TestCompressedWALVolumeShrinks asserts the log-volume half of the
// feature: committing the same compressible payload logs fewer framed
// bytes with compression on than off, because chunk after-images are
// prefix-logged at their stored (compressed) length.
func TestCompressedWALVolumeShrinks(t *testing.T) {
	run := func(disable bool) uint64 {
		st := wal.NewMemStorage()
		db, err := Open(Options{
			Disk: pages.NewMemDisk(), PoolPages: 512,
			WAL:                    openWAL(t, st),
			DisableBlobCompression: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t", walTestSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		w0 := db.WAL().Stats().BytesLogged
		for i := int64(0); i < 4; i++ {
			a := compressibleArray(t, 16000, float64(i))
			if err := tbl.Insert([]Value{IntValue(i), FloatValue(0), BinaryMaxValue(a.Bytes())}); err != nil {
				t.Fatal(err)
			}
		}
		return db.WAL().Stats().BytesLogged - w0
	}
	raw := run(true)
	comp := run(false)
	if comp >= raw {
		t.Fatalf("compressed WAL volume %d >= raw %d", comp, raw)
	}
	t.Logf("WAL bytes for 4 compressible inserts: raw=%d compressed=%d (%.1fx)", raw, comp, float64(raw)/float64(comp))
}
