package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// View is the in-place element reader the short schemas' Item_N used
// before Item read the element in the same pass as the header: ViewOf
// validated the array, and Item/ItemInt re-read the header to resolve
// the index. It is kept here, as it was, as the reference Item is held
// to (TestItemMatchesViewReference, FuzzItem).
type View struct {
	b []byte // header + payload, validated
}

// ViewOf validates b as Wrap does and returns the in-place view of it.
// The view aliases b.
func ViewOf(b []byte) (View, error) {
	_, total, err := checkArray(b)
	if err != nil {
		return View{}, err
	}
	return View{b[:total]}, nil
}

// shape reads the storage class once and returns the rank, the header
// length in bytes and the dimension sizes' fields.
func (v View) shape() (rank, hdr int, dims dimSizes) {
	if v.Class() == Short {
		return int(v.b[3]), shortHeaderSize, dimSizes{enc: v.b[8:], width: 2}
	}
	rank = int(binary.LittleEndian.Uint32(v.b[4:8]))
	return rank, maxFixedHeaderSize + 4*rank, dimSizes{enc: v.b[maxFixedHeaderSize:], width: 4}
}

// Class returns the storage class.
func (v View) Class() StorageClass { return StorageClass(v.b[1] & classFlagMask) }

// ElemType returns the element type.
func (v View) ElemType() ElemType { return ElemType(v.b[2]) }

// elemAt resolves a multi-dimensional index to the element's bytes, with
// Array.LinearIndex's checks and errors.
func (v View) elemAt(idx []int) ([]byte, error) {
	rank, hdr, dims := v.shape()
	if len(idx) != rank {
		return nil, fmt.Errorf("%w: got %d indices for rank-%d array", ErrRank, len(idx), rank)
	}
	lin, stride := 0, 1
	for k, i := range idx {
		d := dims.at(k)
		if i < 0 || i >= d {
			return nil, fmt.Errorf("%w: index %d = %d outside [0,%d)", ErrBounds, k, i, d)
		}
		lin += i * stride
		stride *= d
	}
	return v.b[hdr+lin*v.ElemType().Size():], nil
}

// Item returns the element at a multi-dimensional index as float64, as
// Array.Item does.
func (v View) Item(idx []int) (float64, error) {
	p, err := v.elemAt(idx)
	if err != nil {
		return 0, err
	}
	return v.ElemType().Float(p), nil
}

// ItemInt returns the element at a multi-dimensional index as int64, as
// Array.ItemInt does.
func (v View) ItemInt(idx []int) (int64, error) {
	p, err := v.elemAt(idx)
	if err != nil {
		return 0, err
	}
	return v.ElemType().Int(p), nil
}

// checkViewAgainstWrap asserts that ViewOf reaches Wrap's verdict on b
// (same error, or the same array) and that element reads through the
// view agree with the Array's, in range and out.
func checkViewAgainstWrap(t *testing.T, b []byte) {
	t.Helper()
	a, werr := Wrap(b)
	v, verr := ViewOf(b)
	if (werr == nil) != (verr == nil) || (werr != nil && werr.Error() != verr.Error()) {
		t.Fatalf("ViewOf(%x): %v, Wrap: %v", b, verr, werr)
	}
	if werr != nil {
		return
	}
	if v.Class() != a.Class() || v.ElemType() != a.ElemType() {
		t.Fatalf("view is %s %s, array %s %s", v.ElemType(), v.Class(), a.ElemType(), a.Class())
	}
	dims := a.Dims()
	for _, idx := range [][]int{make([]int, len(dims)), lastIndex(dims), append(lastIndex(dims), 0), outOfRange(dims)} {
		want, werr := a.Item(idx...)
		got, verr := v.Item(idx)
		wantInt, _ := a.ItemInt(idx...)
		gotInt, _ := v.ItemInt(idx)
		if (werr == nil) != (verr == nil) || (werr != nil && werr.Error() != verr.Error()) {
			t.Fatalf("Item(%v) of dims %v: view %v, array %v", idx, dims, verr, werr)
		}
		if werr == nil && (got != want && (got == got || want == want) || gotInt != wantInt) {
			t.Fatalf("Item(%v) of dims %v: view %v/%d, array %v/%d", idx, dims, got, gotInt, want, wantInt)
		}
	}
}

func lastIndex(dims []int) []int {
	idx := make([]int, len(dims))
	for k, d := range dims {
		idx[k] = d - 1 // -1 for an empty dimension: out of bounds on both sides
	}
	return idx
}

func outOfRange(dims []int) []int {
	idx := make([]int, len(dims))
	if len(dims) > 0 {
		idx[len(dims)-1] = dims[len(dims)-1]
	}
	return idx
}

// TestViewMatchesWrap runs valid blobs of every class and type, and
// byte-level corruptions and truncations of them, through both readers.
func TestViewMatchesWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var blobs [][]byte
	for _, class := range []StorageClass{Short, Max} {
		for et := Int8; et <= Complex128; et++ {
			for _, dims := range [][]int{{}, {1}, {5}, {3, 4}, {2, 3, 2}, {0}, {2, 0, 3}, {1, 1, 1, 1, 1, 2}} {
				a, err := New(class, et, dims...)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < a.Len(); i++ {
					a.SetFloatAt(i, float64(rng.Intn(200)-100)/4)
				}
				blobs = append(blobs, a.Bytes())
			}
		}
	}
	for _, b := range blobs {
		checkViewAgainstWrap(t, b)
		checkViewAgainstWrap(t, append(append([]byte(nil), b...), 1, 2, 3)) // trailing bytes are ignored
		for cut := 0; cut < len(b); cut += 1 + len(b)/40 {
			checkViewAgainstWrap(t, b[:cut])
		}
		hdr := len(b)
		if hdr > 40 {
			hdr = 40
		}
		for k := 0; k < 60; k++ {
			c := append([]byte(nil), b...)
			c[rng.Intn(hdr)] ^= 1 << uint(rng.Intn(8))
			checkViewAgainstWrap(t, c)
			c[rng.Intn(hdr)] = byte(rng.Intn(256))
			checkViewAgainstWrap(t, c)
		}
	}
}

// TestViewItemDoesNotAllocate: validating a blob and reading one element
// of it in place — what View was for, and what Item does in one pass —
// touches no heap, for a short and a max array.
func TestViewItemDoesNotAllocate(t *testing.T) {
	short := Vector(1, 2, 3, 4, 5).Bytes()
	cube, err := New(Max, Float64, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cube.SetFloatAt(13, 7.5)
	max := cube.Bytes()
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		idx := [1]int{3}
		p, err := Item(short, idx[:], Float64, Short, "FloatArray")
		if err != nil {
			t.Fatal(err)
		}
		idx3 := [3]int{1, 1, 1}
		q, err := Item(max, idx3[:], Float64, Max, "FloatArrayMax")
		if err != nil {
			t.Fatal(err)
		}
		sum += Float64.Float(p) + Float64.Float(q)
	})
	if allocs != 0 {
		t.Errorf("Item allocates %.0f times", allocs)
	}
	if sum != 101*(4+7.5) {
		t.Errorf("sum = %v", sum)
	}
}
