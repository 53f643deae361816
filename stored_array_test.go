package sqlarray

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/spectra"
)

// TestStoredArraysReadByOneRule: every path that reads part of a stored
// MAX array — Table.BlobSubarray, spectra's GetSlice, a subscript UPDATE
// and SQL FloatArrayMax.Subarray — accepts or rejects a value exactly as
// core.Wrap does. A valid array followed by stray bytes reads as the
// array; a truncated array and bytes that are not an array fail with
// core's error kind, not a blob-layer one.
func TestStoredArraysReadByOneRule(t *testing.T) {
	const bins = 2000 // 16 kB of float64s: three chunk pages
	vals := make([]float64, bins)
	for i := range vals {
		vals[i] = float64(i)
	}
	arr, err := core.FromFloat64s(core.Max, core.Float64, vals, bins)
	if err != nil {
		t.Fatal(err)
	}
	good := arr.Bytes()
	flags, err := core.FromInt64s(core.Max, core.Int16, make([]int64, bins), bins)
	if err != nil {
		t.Fatal(err)
	}
	db := memDatabase(t)
	st, err := spectra.CreateStore(db.DB, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	tbl := st.Table()
	for id, c := range []struct {
		name string
		flux []byte
		kind error // core.Wrap's outcome: nil, or the sentinel its error wraps
	}{
		{"trailing bytes", append(append([]byte(nil), good...), 1, 2, 3), nil},
		{"truncated", good[:len(good)-8], core.ErrTruncated},
		{"not an array", []byte("these bytes hold no array header"), core.ErrBadHeader},
	} {
		if _, err := core.Wrap(c.flux); !sameOutcome(err, c.kind) {
			t.Fatalf("%s: core.Wrap = %v, want %v", c.name, err, c.kind)
		}
		key := int64(id)
		if err := tbl.Insert([]engine.Value{
			engine.IntValue(key), engine.FloatValue(0.1),
			engine.BinaryMaxValue(good), engine.BinaryMaxValue(c.flux),
			engine.BinaryMaxValue(good), engine.BinaryMaxValue(flags.Bytes()),
		}); err != nil {
			t.Fatal(err)
		}
		check := func(path string, err error) {
			t.Helper()
			if !sameOutcome(err, c.kind) || errors.Is(err, blob.ErrBadRef) {
				t.Errorf("%s: %s: %v, want core.Wrap's outcome (%v)", c.name, path, err, c.kind)
			}
		}
		row, err := tbl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tbl.BlobSubarray(row[3].B, []int{10}, []int{5}, false)
		check("BlobSubarray", err)
		if err == nil && !slices.Equal(sub.Float64s(), vals[10:15]) {
			t.Errorf("%s: BlobSubarray read the wrong elements", c.name)
		}
		sl, err := st.GetSlice(key, 10, 15)
		check("GetSlice", err)
		if err == nil && sl.Flux[0] != 10 {
			t.Errorf("%s: GetSlice flux[0] = %v, want 10", c.name, sl.Flux[0])
		}
		res, err := db.Query(fmt.Sprintf(
			"SELECT FloatArrayMax.Subarray(flux, IntArray.Vector_1(10), IntArray.Vector_1(5), 0) FROM spectra WHERE id = %d", key))
		check("SQL Subarray", err)
		if err == nil {
			if got, err := core.Wrap(res.Rows[0][0].B); err != nil || !slices.Equal(got.Float64s(), vals[10:15]) {
				t.Errorf("%s: SQL Subarray read the wrong elements (%v)", c.name, err)
			}
		}
		_, err = db.ExecArray(fmt.Sprintf("UPDATE spectra SET flux[0] = 2.5 WHERE id = %d", key),
			ArrayColumns{"flux": "FloatArrayMax"})
		check("subscript UPDATE", err)
		if err == nil {
			res, err := db.Query(fmt.Sprintf("SELECT FloatArrayMax.Item_1(flux, 0) FROM spectra WHERE id = %d", key))
			if err != nil || res.Rows[0][0].F != 2.5 {
				t.Errorf("%s: flux[0] after UPDATE = %v, %v; want 2.5", c.name, res, err)
			}
		}
	}
	if n := db.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the reads", n)
	}
}

// sameOutcome reports whether err is the outcome kind stands for: no
// error for nil, else an error wrapping kind.
func sameOutcome(err, kind error) bool {
	if kind == nil {
		return err == nil
	}
	return errors.Is(err, kind)
}

// TestHeaderLongerThanFirstBlock reads a stored max array whose header
// does not fit the blob's first block — rank 2100 with unit dims, a
// 16 + 4·2100 = 8416-byte header — through every reader entry point and
// checks each against core.Wrap of the stored bytes.
func TestHeaderLongerThanFirstBlock(t *testing.T) {
	const rank = 2100
	ones, zeros := make([]int, rank), make([]int, rank)
	for k := range ones {
		ones[k] = 1
	}
	a, err := core.FromFloat64s(core.Max, core.Float64, []float64{42.5}, ones...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Wrap(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wh := want.Header()
	if hs := wh.EncodedSize(); hs != 16+4*rank || hs <= blob.BlockSize {
		t.Fatalf("header is %d bytes; the test needs one longer than a %d-byte block", hs, blob.BlockSize)
	}
	db := memDatabase(t)
	s, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64}, engine.Column{Name: "a", Type: engine.ColVarBinaryMax})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("deep", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]engine.Value{engine.IntValue(1), engine.BinaryMaxValue(a.Bytes())}); err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := row[1].B

	h, hs, err := tbl.BlobHeader(ref)
	if err != nil || hs != wh.EncodedSize() || h.Elem != wh.Elem || h.Class != wh.Class || !slices.Equal(h.Dims, wh.Dims) {
		t.Fatalf("BlobHeader = rank %d %v, %d header bytes, %v; want rank %d %v, %d", len(h.Dims), h.Elem, hs, err, rank, wh.Elem, wh.EncodedSize())
	}
	for _, collapse := range []bool{false, true} {
		wsub, err := want.Subarray(zeros, ones, collapse)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.BlobSubarray(ref, zeros, ones, collapse)
		if err != nil || !bytes.Equal(got.Bytes(), wsub.Bytes()) {
			t.Errorf("BlobSubarray(collapse %v): %v, or the bytes differ from core's", collapse, err)
		}
		snap := db.Snapshot()
		got, err = tbl.ArrayAt(snap, ref).Subarray(zeros, ones, collapse, nil, core.NewAuto)
		snap.Release()
		if err != nil || !bytes.Equal(got.Bytes(), wsub.Bytes()) {
			t.Errorf("ArrayReader.Subarray(collapse %v): %v, or the bytes differ from core's", collapse, err)
		}
	}
	res, err := db.Query("SELECT FloatArrayMax.Rank(a), FloatArrayMax.Length(a), FloatArrayMax.Item_1(FloatArrayMax.Reshape_1(a, 1), 0) FROM deep WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rows[0]; r[0].I != rank || r[1].I != int64(want.Len()) || r[2].F != 42.5 {
		t.Errorf("SQL Rank, Length, element = %v, want %d, %d, 42.5", r, rank, want.Len())
	}
	if n := db.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the reads", n)
	}
}
