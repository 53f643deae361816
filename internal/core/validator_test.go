package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// closureCheckShape is checkShape as it was when it read each dimension
// size through a func(int) int and bounded the element count by a
// division: the reference the current validator must agree with.
func closureCheckShape(class StorageClass, elem ElemType, rank int, dim func(int) int) (int, error) {
	if !elem.Valid() {
		return 0, fmt.Errorf("%w: invalid element type %d", ErrBadHeader, uint8(elem))
	}
	limit := maxMaxDim
	switch class {
	case Short:
		if rank > maxShortRank {
			return 0, fmt.Errorf("%w: short arrays support at most %d dimensions, got %d",
				ErrRank, maxShortRank, rank)
		}
		limit = maxShortDim
	case Max:
	default:
		return 0, fmt.Errorf("%w: unknown storage class %d", ErrBadHeader, uint8(class))
	}
	count := 1
	for i := 0; i < rank; i++ {
		d := dim(i)
		if d < 0 || d > limit {
			return 0, fmt.Errorf("%w: %s dimension %d size %d outside [0,%d]",
				ErrBadHeader, class, i, d, limit)
		}
		if d != 0 && count > maxElements/d {
			return 0, fmt.Errorf("%w: element count overflows at dimension %d", errTooLarge, i)
		}
		count *= d
	}
	if total := shortHeaderSize + count*elem.Size(); class == Short && total > maxShortBytes {
		return 0, fmt.Errorf("%w: %d bytes > VARBINARY(%d)", errTooLarge, total, maxShortBytes)
	}
	return count, nil
}

// closureCheckHeader is checkHeader over closureCheckShape, reading the
// rank and each dimension size as the old View.rank and View.dim did.
func closureCheckHeader(b []byte) (n, count int, err error) {
	if n, err = HeaderSizeFromPrefix(b); err != nil {
		return 0, 0, err
	}
	class := StorageClass(b[1] & classFlagMask)
	if len(b) < n {
		return 0, 0, fmt.Errorf("%w: %s header needs %d bytes, have %d",
			ErrBadHeader, class, n, len(b))
	}
	rank := int(binary.LittleEndian.Uint32(b[4:8]))
	dim := func(k int) int { return int(binary.LittleEndian.Uint32(b[maxFixedHeaderSize+4*k:])) }
	if class == Short {
		rank = int(b[3])
		dim = func(k int) int { return int(binary.LittleEndian.Uint16(b[8+2*k:])) }
	}
	if count, err = closureCheckShape(class, ElemType(b[2]), rank, dim); err != nil {
		return 0, 0, err
	}
	declared := binary.LittleEndian.Uint64(b[8:16])
	if class == Short {
		declared = uint64(binary.LittleEndian.Uint32(b[4:8]))
	}
	if declared != uint64(count) {
		return 0, 0, fmt.Errorf("%w: declared count %d != dim product %d",
			ErrBadHeader, declared, count)
	}
	return n, count, nil
}

// sameVerdict fails unless two validator results are the same: the same
// lengths, and errors of the same text wrapping the same sentinel.
func sameVerdict(t *testing.T, what string, n, count int, err error, wn, wcount int, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || n != wn || count != wcount {
		t.Fatalf("%s: (%d, %d, %v), closure validator (%d, %d, %v)", what, n, count, err, wn, wcount, werr)
	}
	if err == nil {
		return
	}
	if err.Error() != werr.Error() {
		t.Fatalf("%s: error %q, closure validator %q", what, err, werr)
	}
	for _, kind := range []error{ErrBadHeader, ErrRank, errTooLarge} {
		if errors.Is(err, kind) != errors.Is(werr, kind) {
			t.Fatalf("%s: error %q wraps %v differently", what, err, kind)
		}
	}
}

// randomHeaderBytes draws header bytes near the edges the validator
// draws: mostly well-formed short or max headers, with dimension sizes
// around each class's limit and around element-count overflow, wrong
// declared counts, bad element types, ranks past the short limit, and
// truncated or byte-flipped copies.
func randomHeaderBytes(rng *rand.Rand) []byte {
	elem := ElemType(1 + rng.Intn(8))
	if rng.Intn(10) == 0 {
		elem = ElemType(rng.Intn(256))
	}
	size := func(limit int) int {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return limit - rng.Intn(3)
		case 2:
			return limit + 1 + rng.Intn(3)
		case 3:
			return 1 << uint(rng.Intn(32))
		}
		return 1 + rng.Intn(40)
	}
	var b []byte
	if rng.Intn(2) == 0 {
		rank := rng.Intn(maxShortRank + 1)
		if rng.Intn(10) == 0 {
			rank = rng.Intn(256)
		}
		b = make([]byte, shortHeaderSize)
		b[0], b[1], b[2], b[3] = magic, byte(Short)|formatVersion<<4, byte(elem), byte(rank)
		count := uint32(1)
		for k := 0; k < rank && k < maxShortRank; k++ {
			d := size(maxShortDim)
			binary.LittleEndian.PutUint16(b[8+2*k:], uint16(d))
			count *= uint32(uint16(d))
		}
		binary.LittleEndian.PutUint32(b[4:8], count)
	} else {
		rank := rng.Intn(8)
		b = make([]byte, maxFixedHeaderSize+4*rank)
		b[0], b[1], b[2] = magic, byte(Max)|formatVersion<<4, byte(elem)
		binary.LittleEndian.PutUint32(b[4:8], uint32(rank))
		count := uint64(1)
		for k := 0; k < rank; k++ {
			d := size(maxMaxDim)
			binary.LittleEndian.PutUint32(b[maxFixedHeaderSize+4*k:], uint32(d))
			count *= uint64(uint32(d))
		}
		binary.LittleEndian.PutUint64(b[8:16], count)
	}
	switch rng.Intn(8) {
	case 0:
		b[4+rng.Intn(4)] ^= byte(1 + rng.Intn(255)) // wrong declared count (or rank)
	case 1:
		b = b[:rng.Intn(len(b)+1)]
	case 2:
		if len(b) > 0 {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
	}
	return b
}

// TestCheckHeaderAgreesWithClosureValidator: over random and mutated
// short and max headers, checkHeader returns exactly what the validator
// that read dimension sizes through a callback returned, errors
// included; and Validate agrees with it over Headers with any sizes.
func TestCheckHeaderAgreesWithClosureValidator(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	accepted := 0
	for i := 0; i < 200000; i++ {
		b := randomHeaderBytes(rng)
		n, count, err := checkHeader(b)
		wn, wcount, werr := closureCheckHeader(b)
		sameVerdict(t, fmt.Sprintf("header %x", b), n, count, err, wn, wcount, werr)
		if err == nil {
			accepted++
		}
	}
	if accepted < 20000 {
		t.Errorf("only %d of the random headers validated: the edges are not covered", accepted)
	}
	for i := 0; i < 50000; i++ {
		h := Header{Class: StorageClass(rng.Intn(3)), Elem: ElemType(rng.Intn(10)), Dims: make([]int, rng.Intn(9))}
		for k := range h.Dims {
			switch rng.Intn(5) {
			case 0:
				h.Dims[k] = -1 - rng.Intn(3)
			case 1:
				h.Dims[k] = 1<<uint(rng.Intn(40)) - rng.Intn(2)
			default:
				h.Dims[k] = rng.Intn(50)
			}
		}
		err := h.Validate()
		_, werr := closureCheckShape(h.Class, h.Elem, len(h.Dims), func(k int) int { return h.Dims[k] })
		sameVerdict(t, fmt.Sprintf("header %+v", h), 0, 0, err, 0, 0, werr)
	}
}

// FuzzCheckHeaderAgreement holds checkHeader to the closure validator on
// arbitrary bytes (its seeds run with every go test).
func FuzzCheckHeaderAgreement(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		f.Add(randomHeaderBytes(rng))
	}
	f.Add(Vector(1, 2, 3, 4, 5).Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		n, count, err := checkHeader(b)
		wn, wcount, werr := closureCheckHeader(b)
		sameVerdict(t, fmt.Sprintf("header %x", b), n, count, err, wn, wcount, werr)
	})
}
