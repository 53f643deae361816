package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
)

// readerDB builds a database with one MAX column table, "a", into which
// the reader tests put one value at a time.
func readerDB(t testing.TB) (*DB, *Table) {
	t.Helper()
	db := memDB(t)
	s, err := NewSchema(Column{Name: "id", Type: ColInt64}, Column{Name: "a", Type: ColVarBinaryMax})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("a", s)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// storeValue inserts b as row key's MAX value and returns the row's ref.
func storeValue(t testing.TB, tbl *Table, key int64, b []byte) []byte {
	t.Helper()
	if err := tbl.Insert([]Value{IntValue(key), BinaryMaxValue(b)}); err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return row[1].B
}

// FuzzArrayReader holds the reader's two forms to the materialized
// array: for a random header, shape and index — or random bytes — the
// ref form (through a snapshot of the stored blob) and the bytes form
// decode the header core.Wrap decodes or fail with Wrap's error, read
// the element core.Array.Item reads or fail with the same kind of error,
// and copy the subarray core.Array.Subarray copies. Each form is read
// twice: Header first and then the runs, and, from a freshly bound
// reader, the header and the runs in one call (Read, Subarray).
func FuzzArrayReader(f *testing.F) {
	f.Add(uint8(5), true, uint8(1), int64(1), false, []byte(nil))
	f.Add(uint8(5), true, uint8(3), int64(2), true, []byte(nil))
	f.Add(uint8(2), false, uint8(2), int64(3), false, []byte(nil))
	f.Add(uint8(7), true, uint8(0), int64(4), true, []byte(nil))
	f.Add(uint8(5), true, uint8(2), int64(5), false, []byte{0xAB, 0x11, 6, 0, 2, 0, 0, 0})
	f.Add(uint8(0), false, uint8(0), int64(0), false, []byte{0xAB})
	db, tbl := readerDB(f)
	key := int64(0)
	f.Fuzz(func(t *testing.T, elem uint8, max bool, rank uint8, seed int64, noise bool, junk []byte) {
		rng := rand.New(rand.NewSource(seed))
		class := core.Short
		if max {
			class = core.Max
		}
		// Up to ~3000 elements: a max array then spans several chunk
		// pages, packed or raw blocks depending on noise.
		dims := make([]int, rank%5)
		big := rng.Intn(3) == 0
		for k := range dims {
			dims[k] = 1 + rng.Intn(6)
			if big && k == len(dims)-1 {
				dims[k] = 1 + rng.Intn(3000)
			}
		}
		a, err := core.New(class, core.ElemType(1+elem%8), dims...)
		if err != nil {
			return // too large for the short class
		}
		for i := 0; i < a.Len(); i++ {
			if noise {
				a.SetFloatAt(i, float64(rng.Intn(1<<20)))
			} else {
				a.SetFloatAt(i, float64(i%100))
			}
		}
		b := a.Bytes()
		switch {
		case len(junk) > 0 && junk[0]&1 == 0:
			b = junk // a random header
		case len(junk) > 0:
			b = append(append([]byte(nil), b...), junk...) // trailing bytes
		}
		key++
		ref := storeValue(t, tbl, key, b)
		snap := db.Snapshot()
		defer snap.Release()
		var byRef ArrayReader
		byRef.bind(&snap.blobs, Value{Kind: ColMaxRef, B: ref})
		forms := []struct {
			name string
			r    *ArrayReader
		}{{"ref", &byRef}, {"bytes", NewArrayReader(BinaryMaxValue(b))}}

		want, werr := core.Wrap(b)
		for _, form := range forms {
			h, err := form.r.Header()
			if werr != nil {
				if err == nil || err.Error() != werr.Error() {
					t.Fatalf("%s form: header error %v, core.Wrap %v", form.name, err, werr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s form: header error %v on a valid array", form.name, err)
			}
			wh := want.Header()
			if h.Class != wh.Class || h.Elem != wh.Elem || !equalInts(h.Dims, wh.Dims) {
				t.Fatalf("%s form: header %v, want %v", form.name, h.String(), wh.String())
			}
			idx := randIndex(rng, dims)
			x, verr := want.Item(idx...)
			runs, err := core.SubarrayPlan(h, idx, unitDims(len(idx)))
			if err == nil {
				cell, _ := core.New(core.Short, h.Elem)
				if err = readRuns(form.r, cell.Payload(), runs); err != nil {
					t.Fatalf("%s form: element read: %v", form.name, err)
				}
				if verr != nil || math.Float64bits(cell.FloatAt(0)) != math.Float64bits(x) {
					t.Fatalf("%s form: element %v = %v, Array.Item %v, %v", form.name, idx, cell.FloatAt(0), x, verr)
				}
			} else if !sameKind(err, verr) {
				t.Fatalf("%s form: element %v error %v, Array.Item %v", form.name, idx, err, verr)
			}
			off, size := randBox(rng, dims)
			wsub, serr := want.Subarray(off, size, false)
			runs, err = core.SubarrayPlan(h, off, size)
			if (err != nil) != (serr != nil) {
				t.Fatalf("%s form: subarray %v+%v error %v, core %v", form.name, off, size, err, serr)
			}
			if err == nil {
				got := make([]byte, len(wsub.Payload()))
				if err := readRuns(form.r, got, runs); err != nil {
					t.Fatalf("%s form: subarray read: %v", form.name, err)
				}
				if !bytes.Equal(got, wsub.Payload()) {
					t.Fatalf("%s form: subarray %v+%v differs from core's", form.name, off, size)
				}
			}
		}
		byRef.release()
		for _, form := range []string{"ref", "bytes"} {
			fresh := func() *ArrayReader {
				if form == "ref" {
					return tbl.ArrayAt(snap, ref)
				}
				return NewArrayReader(BinaryMaxValue(b))
			}
			wrapErr := func(what string, err error) {
				if err == nil || err.Error() != werr.Error() {
					t.Fatalf("%s form: one-call %s error %v, core.Wrap %v", form, what, err, werr)
				}
			}
			idx := randIndex(rng, dims)
			var cell *core.Array
			err := fresh().Read(func(h core.Header) ([]byte, []core.Run, error) {
				runs, err := core.SubarrayPlan(h, idx, unitDims(len(idx)))
				if err != nil {
					return nil, nil, err
				}
				cell, _ = core.New(core.Short, h.Elem)
				return cell.Payload(), runs, nil
			})
			if werr != nil {
				wrapErr("element", err)
			} else {
				x, verr := want.Item(idx...)
				if err == nil && (verr != nil || math.Float64bits(cell.FloatAt(0)) != math.Float64bits(x)) ||
					err != nil && !sameKind(err, verr) {
					t.Fatalf("%s form: one-call element %v error %v, Array.Item %v, %v", form, idx, err, x, verr)
				}
			}
			off, size := randBox(rng, dims)
			sub, err := fresh().Subarray(off, size, false, nil, core.NewAuto)
			if werr != nil {
				wrapErr("subarray", err)
				continue
			}
			wsub, serr := want.Subarray(off, size, false)
			if (err != nil) != (serr != nil) || err == nil && !bytes.Equal(sub.Bytes(), wsub.Bytes()) {
				t.Fatalf("%s form: one-call subarray %v+%v error %v, core %v, or bytes differ", form, off, size, err, serr)
			}
		}
		if n := db.Pool().PinnedFrames(); n != 0 {
			t.Fatalf("%d frames pinned after the reads", n)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Close(tbl.DeleteTx(tx, key)); err != nil {
			t.Fatal(err)
		}
	})
}

// readRuns reads runs of r's payload into dst after a Header call, with
// a plan that ignores the header it is handed.
func readRuns(r *ArrayReader, dst []byte, runs []core.Run) error {
	return r.Read(func(core.Header) ([]byte, []core.Run, error) { return dst, runs, nil })
}

// randIndex draws an index into dims that is out of range now and then.
func randIndex(rng *rand.Rand, dims []int) []int {
	idx := make([]int, len(dims))
	for k := range idx {
		idx[k] = rng.Intn(dims[k]+1) - rng.Intn(2)
	}
	return idx
}

// randBox draws a subarray's offset and size inside dims, or past its
// end now and then.
func randBox(rng *rand.Rand, dims []int) (off, size []int) {
	off, size = make([]int, len(dims)), make([]int, len(dims))
	for k := range off {
		off[k] = rng.Intn(dims[k] + 1)
		size[k] = 1 + rng.Intn(dims[k])
	}
	return off, size
}

// unitDims is the size of a one-element subarray of a rank-n array.
func unitDims(n int) []int {
	ones := make([]int, n)
	for k := range ones {
		ones[k] = 1
	}
	return ones
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameKind reports whether two errors wrap the same core sentinel.
func sameKind(a, b error) bool {
	for _, k := range []error{core.ErrRank, core.ErrBounds} {
		if errors.Is(a, k) || errors.Is(b, k) {
			return errors.Is(a, k) && errors.Is(b, k)
		}
	}
	return (a == nil) == (b == nil)
}

// TestArrayFunctionCrossesAsRef: an array function called over a batch
// of blob refs receives a reader over each row's array and is charged
// the ref frame (kind tag + 12 bytes), not the payload; the same
// function over a payload reads it in place; a ref without a snapshot
// is an error, not a read of the latest state.
func TestArrayFunctionCrossesAsRef(t *testing.T) {
	db, tbl := readerDB(t)
	r := db.Funcs()
	r.RegisterArray("t.Len", 1, func(rd *ArrayReader, _ []Value) (Value, error) {
		h, err := rd.Header()
		if err != nil {
			return Null, err
		}
		return IntValue(int64(h.Count())), nil
	})
	def, err := r.Lookup("t.Len")
	if err != nil {
		t.Fatal(err)
	}
	var refs Vector
	refs.Reset(ColMaxRef, 3)
	for i, n := range []int{3, 2500, 0} {
		if n == 0 {
			refs.SetNull(i)
			continue
		}
		a, err := core.New(core.Max, core.Float64, n)
		if err != nil {
			t.Fatal(err)
		}
		refs.B[i] = storeValue(t, tbl, int64(i), a.Bytes())
	}
	snap := db.Snapshot()
	defer snap.Release()
	var out Vector
	before := crossings(r)
	err = r.CallBatch(snap, def, []*Vector{&refs}, 2, &out)
	if err != nil || out.Value(0).I != 3 || out.Value(1).I != 2500 {
		t.Fatalf("CallBatch = %v, %v, %v", out.Value(0), out.Value(1), err)
	}
	if got, want := crossings(r).bytes-before.bytes, uint64(2*(1+blob.RefSize+9)); got != want {
		t.Errorf("%d bytes marshaled, want %d (two ref frames and two BIGINT results)", got, want)
	}
	if err := r.CallBatch(snap, def, []*Vector{&refs}, 3, &out); !errors.Is(err, ErrNullValue) {
		t.Errorf("NULL ref row: %v, want ErrNullValue", err)
	}
	if err := r.CallBatch(nil, def, []*Vector{&refs}, 1, &out); !errors.Is(err, ErrTypeError) {
		t.Errorf("ref without a snapshot: %v, want ErrTypeError", err)
	}
	a, _ := core.New(core.Max, core.Float64, 7)
	if v, err := r.Call(def, []Value{BinaryMaxValue(a.Bytes())}); err != nil || v.I != 7 {
		t.Errorf("Call over a payload = %v, %v", v, err)
	}
	if n := db.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the calls", n)
	}
}
