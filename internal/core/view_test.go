package core

import (
	"math/rand"
	"testing"
)

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

// TestViewItemDoesNotAllocate is the point of View: validating a blob
// and reading one element of it touches no heap.
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
		v, err := ViewOf(short)
		if err != nil {
			t.Fatal(err)
		}
		idx := [1]int{3}
		x, err := v.Item(idx[:])
		if err != nil {
			t.Fatal(err)
		}
		w, err := ViewOf(max)
		if err != nil {
			t.Fatal(err)
		}
		idx3 := [3]int{1, 1, 1}
		y, err := w.Item(idx3[:])
		if err != nil {
			t.Fatal(err)
		}
		sum += x + y
	})
	if allocs != 0 {
		t.Errorf("ViewOf + Item allocate %.0f times", allocs)
	}
	if sum != 101*(4+7.5) {
		t.Errorf("sum = %v", sum)
	}
}
