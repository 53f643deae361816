package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// flagCheck is CheckFlags for a function of element type elem and
// storage class class, as the T-SQL layer's schemas call it.
func flagCheck(elem ElemType, class StorageClass) func(ElemType, StorageClass) error {
	name := fmt.Sprintf("%s %s", elem, class)
	return func(got ElemType, gotClass StorageClass) error {
		return CheckFlags(name, elem, class, got, gotClass)
	}
}

// itemErrKinds are the error classes an element read can end in.
var itemErrKinds = []error{ErrBadHeader, ErrRank, ErrBounds, ErrTruncated, ErrTypeMismatch, ErrClassMismatch, errTooLarge}

// checkItemAgainstView holds Item to the read it replaces — ViewOf, the
// schema's flag check, then View.Item and View.ItemInt — for a function
// of element type elem and class class reading b at idx: the same float
// and integer value, or an error of the same text and the same class.
func checkItemAgainstView(t *testing.T, b []byte, elem ElemType, class StorageClass, idx []int) {
	t.Helper()
	check := flagCheck(elem, class)
	p, err := Item(b, idx, elem, class, fmt.Sprintf("%s %s", elem, class))
	var (
		want    float64
		wantInt int64
	)
	v, werr := ViewOf(b)
	if werr == nil {
		werr = check(v.ElemType(), v.Class())
	}
	if werr == nil {
		want, werr = v.Item(idx)
		wantInt, _ = v.ItemInt(idx)
	}
	what := fmt.Sprintf("%s %s function reading %x at %v", elem, class, b, idx)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: Item error %v, reference %v", what, err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("%s: Item error %q, reference %q", what, err, werr)
		}
		for _, kind := range itemErrKinds {
			if errors.Is(err, kind) != errors.Is(werr, kind) {
				t.Fatalf("%s: Item error %q wraps %v differently from %q", what, err, kind, werr)
			}
		}
		return
	}
	if len(p) != elem.Size() {
		t.Fatalf("%s: Item returned %d bytes, want %d", what, len(p), elem.Size())
	}
	if got := elem.Float(p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Item reads %v, reference %v", what, got, want)
	}
	if got := elem.Int(p); got != wantInt {
		t.Fatalf("%s: Item reads %d as an integer, reference %d", what, got, wantInt)
	}
}

// randomItemArray draws the bytes an Item call may be handed: a valid
// array of any element type and class with random elements (sometimes
// with trailing bytes, a truncated payload or a flipped header byte), or
// random header bytes from randomHeaderBytes followed by a payload of
// about the length they declare.
func randomItemArray(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		b := randomHeaderBytes(rng)
		if _, count, err := checkHeader(b); err == nil && count*ElemType(b[2]).Size() <= 1<<12 {
			pay := make([]byte, max(0, count*ElemType(b[2]).Size()+rng.Intn(3)-1))
			rng.Read(pay)
			return append(b, pay...)
		}
		return b
	}
	class := StorageClass(rng.Intn(2))
	dims := make([]int, rng.Intn(5))
	for k := range dims {
		dims[k] = rng.Intn(7)
	}
	a, err := New(class, ElemType(1+rng.Intn(8)), dims...)
	if err != nil {
		return nil
	}
	rng.Read(a.Payload())
	b := a.Bytes()
	switch rng.Intn(8) {
	case 0:
		b = append(b, 1, 2, 3) // trailing bytes are ignored
	case 1:
		b = b[:rng.Intn(len(b)+1)]
	case 2:
		b[rng.Intn(min(len(b), 40))] ^= byte(1 + rng.Intn(255))
	}
	return b
}

// randomItemIndex draws an index for the array at the front of b: in
// range, out of range in one coordinate (at the dimension's size or
// below zero), or of the wrong rank.
func randomItemIndex(rng *rand.Rand, b []byte) []int {
	rank := 0
	var dims dimSizes
	if _, _, err := checkHeader(b); err == nil {
		rank, dims = dimsOf(b)
	}
	idx := make([]int, rank)
	for k := range idx {
		if d := dims.at(k); d > 0 {
			idx[k] = rng.Intn(d)
		}
	}
	switch rng.Intn(6) {
	case 0:
		if rank > 0 {
			k := rng.Intn(rank)
			idx[k] = dims.at(k)
		}
	case 1:
		if rank > 0 {
			idx[rng.Intn(rank)] = -1 - rng.Intn(3)
		}
	case 2:
		idx = append(idx, 0)
	case 3:
		if rank > 0 {
			idx = idx[:rank-1]
		}
	}
	return idx
}

// TestItemMatchesViewReference: over seeded random arrays, header bytes
// and indices, Item agrees with ViewOf + View.Item for functions of every
// element type and class — the array's own flags most of the time.
func TestItemMatchesViewReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	read := 0
	for i := 0; i < 100000; i++ {
		b := randomItemArray(rng)
		elem, class := ElemType(1+rng.Intn(8)), StorageClass(rng.Intn(2))
		if len(b) > 2 && rng.Intn(4) != 0 {
			elem, class = ElemType(b[2]), StorageClass(b[1]&classFlagMask)
		}
		idx := randomItemIndex(rng, b)
		checkItemAgainstView(t, b, elem, class, idx)
		if _, err := Item(b, idx, elem, class, "f"); err == nil {
			read++
		}
	}
	if read < 10000 {
		t.Errorf("only %d of the reads found an element: the success path is not covered", read)
	}
}

// FuzzItem holds Item to ViewOf + View.Item on arbitrary bytes, a
// function of any element type and class, and an index of up to 8
// coordinates read from idx as int16s.
func FuzzItem(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 32; i++ {
		b := randomItemArray(rng)
		var idx []byte
		for _, x := range randomItemIndex(rng, b) {
			idx = binary.LittleEndian.AppendUint16(idx, uint16(int16(x)))
		}
		isMax := len(b) > 1 && b[1]&classFlagMask == 1
		elem := uint8(0)
		if len(b) > 2 {
			elem = b[2]
		}
		f.Add(b, elem, isMax, idx)
	}
	f.Fuzz(func(t *testing.T, b []byte, elem uint8, isMax bool, raw []byte) {
		class := Short
		if isMax {
			class = Max
		}
		idx := make([]int, 0, 8)
		for len(raw) >= 2 && len(idx) < cap(idx) {
			idx = append(idx, int(int16(binary.LittleEndian.Uint16(raw))))
			raw = raw[2:]
		}
		checkItemAgainstView(t, b, ElemType(elem), class, idx)
	})
}
