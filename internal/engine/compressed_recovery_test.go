package engine

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// compressibleArray builds a Max float64 array whose values are a small
// fluctuation on a large mean — the XOR-delta codec's favorable case —
// so the blob writer packs it into compressed chunks.
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

// noiseArray builds a Max float64 array of seeded random mantissas —
// nothing for either codec to shrink, so the writer stores raw blocks.
func noiseArray(t *testing.T, n int, seed float64) *core.Array {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(0x3FF<<52 | rng.Uint64()>>12)
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// blobLayouts are the two inputs the blob writer picks a codec from: a
// payload whose packed form saves pages, and one it cannot shrink, which
// it stores as raw blocks. No option selects the codec; the data does.
var blobLayouts = []struct {
	name   string
	array  func(t *testing.T, n int, seed float64) *core.Array
	packed bool
}{
	{"compressible", compressibleArray, true},
	{"incompressible", noiseArray, false},
}

// TestRecoverBlobFormatFollowsPayload is the storage contract of MAX values:
// the payload alone decides the layout — compressed blocks packed on
// fewer pages than raw blocks need, or raw blocks on exactly
// blob.NumChunks pages — and either layout survives an in-place
// subarray patch, a whole-blob overwrite, a checkpoint torn mid-write
// and crash recovery byte-identical and on as many pages.
func TestRecoverBlobFormatFollowsPayload(t *testing.T) {
	for _, lay := range blobLayouts {
		t.Run(lay.name, func(t *testing.T) {
			fd := pages.NewFaultDisk(pages.NewMemDisk())
			st := wal.NewMemStorage()
			db := openDB(t, fd, st)
			tbl, err := db.CreateTable("t", walTestSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			const mCol = 2
			const elems = 16000 // 128 kB logical payload per row
			want := map[int64][]byte{}
			for i := int64(0); i < 6; i++ {
				a := lay.array(t, elems, float64(i))
				want[i] = append([]byte(nil), a.Bytes()...)
				c0 := db.Blobs().Stats().ChunksWritten
				if err := tbl.Insert([]Value{
					IntValue(i), FloatValue(float64(i)), BinaryMaxValue(a.Bytes()),
				}); err != nil {
					t.Fatal(err)
				}
				chunks := int(db.Blobs().Stats().ChunksWritten - c0)
				raw := blob.NumChunks(int64(len(a.Bytes())))
				if lay.packed && chunks >= raw {
					t.Fatalf("row %d: packed blob on %d chunk pages, raw needs %d", i, chunks, raw)
				}
				if !lay.packed && chunks != raw {
					t.Fatalf("row %d: raw blob on %d chunk pages, want %d", i, chunks, raw)
				}
			}

			// check reads every row back: byte-identical, and in the
			// layout the payload selects — a whole read fetches each
			// chunk page once, so ChunkReads counts the blob's pages.
			check := func(db *DB, tbl *Table, when string) {
				t.Helper()
				for key, payload := range want {
					vals, err := tbl.Get(key)
					if err != nil {
						t.Fatalf("%s: Get(%d): %v", when, key, err)
					}
					c0 := db.Blobs().Stats().ChunkReads
					got, err := resolveMax(tbl, vals[mCol].B)
					if err != nil {
						t.Fatalf("%s: resolve(%d): %v", when, key, err)
					}
					chunks := int(db.Blobs().Stats().ChunkReads - c0)
					raw := blob.NumChunks(int64(len(payload)))
					if lay.packed && chunks >= raw {
						t.Errorf("%s: row %d on %d chunk pages, want fewer than %d", when, key, chunks, raw)
					}
					if !lay.packed && chunks != raw {
						t.Errorf("%s: row %d on %d chunk pages, want %d", when, key, chunks, raw)
					}
					if !bytes.Equal(got, payload) {
						t.Fatalf("%s: row %d: blob not byte-identical (%d vs %d bytes)", when, key, len(got), len(payload))
					}
				}
			}

			// Patch a blob in place (WriteRuns) and mirror it into the
			// expectation. The patch is incompressible relative to the
			// field, so re-encoded compressed chunks may split.
			patchVals := []float64{math.Pi, -math.E, 1e300, -1e-300}
			patch, err := core.FromFloat64s(core.Short, core.Float64, patchVals, len(patchVals))
			if err != nil {
				t.Fatal(err)
			}
			if err := inTx(tbl.db, func(tx *Tx) error {
				return tbl.UpdateBlobSubarrayTx(tx, 2, mCol, []int{8000}, []int{len(patchVals)}, patch)
			}); err != nil {
				t.Fatal(err)
			}
			hdr := int64(len(want[2])) - int64(elems*8)
			copy(want[2][hdr+8000*8:], patch.Bytes()[len(patch.Bytes())-len(patchVals)*8:])

			// Whole-blob overwrite of another row.
			a5 := lay.array(t, elems, 99)
			want[5] = append([]byte(nil), a5.Bytes()...)
			if err := inTx(tbl.db, func(tx *Tx) error {
				return tbl.UpdateTx(tx, 5, []int{mCol}, []Value{BinaryMaxValue(a5.Bytes())})
			}); err != nil {
				t.Fatal(err)
			}
			check(db, tbl, "after patch")

			// The checkpoint tears its 4th page write; recovery must
			// reapply the logged (prefix-compressed) after-images over
			// the torn platter.
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
			check(db2, tbl2, "after recovery")
			// The recovered store read fewer stored than logical bytes
			// exactly when the payload compresses.
			if st := db2.Blobs().Stats(); (st.StoredBytesRead < st.BytesRead) != lay.packed {
				t.Errorf("recovered store read %d stored bytes for %d logical, want packed = %v",
					st.StoredBytesRead, st.BytesRead, lay.packed)
			}
			verifyInvariants(t, db2, "t")
		})
	}
}

// TestCompressedWALVolumeShrinks asserts the log-volume half of the
// feature: committing a compressible payload logs fewer framed bytes
// than committing an incompressible one of the same size, because chunk
// after-images are prefix-logged at their stored (compressed) length.
func TestCompressedWALVolumeShrinks(t *testing.T) {
	logged := map[bool]uint64{} // by lay.packed
	for _, lay := range blobLayouts {
		db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
		tbl, err := db.CreateTable("t", walTestSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		w0 := db.WAL().Stats().BytesLogged
		for i := int64(0); i < 4; i++ {
			a := lay.array(t, 16000, float64(i))
			if err := tbl.Insert([]Value{IntValue(i), FloatValue(0), BinaryMaxValue(a.Bytes())}); err != nil {
				t.Fatal(err)
			}
		}
		logged[lay.packed] = db.WAL().Stats().BytesLogged - w0
	}
	comp, raw := logged[true], logged[false]
	if comp >= raw {
		t.Fatalf("compressed WAL volume %d >= raw %d", comp, raw)
	}
	t.Logf("WAL bytes for 4 inserts of 128 kB: raw=%d compressed=%d (%.1fx)", raw, comp, float64(raw)/float64(comp))
}
