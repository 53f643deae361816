package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Header is the decoded form of the blob header described in §3.5 of the
// paper: flags identifying the storage class and the underlying element
// type (so type mismatches are detected at runtime when a blob is passed
// to the wrong function), the number of dimensions, the total element
// count, and the dimension sizes.
//
// Wire layouts (little-endian):
//
//	short (24 bytes fixed):
//	  [0]    magic 0xAB
//	  [1]    flags: bit0 = storage class (0 short), bits 4-7 = version
//	  [2]    element type
//	  [3]    rank (<= 6)
//	  [4:8]  total element count (uint32)
//	  [8:20] six dimension sizes (uint16 each; unused trailing dims = 0)
//	  [20:24] reserved (zero)
//
//	max (16 bytes + 4 per dimension):
//	  [0]    magic 0xAB
//	  [1]    flags: bit0 = 1 (max), bits 4-7 = version
//	  [2]    element type
//	  [3]    reserved
//	  [4:8]  rank (uint32)
//	  [8:16] total element count (uint64)
//	  [16:]  rank dimension sizes (uint32 each)
type Header struct {
	Class StorageClass
	Elem  ElemType
	Dims  []int
}

const classFlagMask = 0x01

// Rank returns the number of dimensions.
func (h *Header) Rank() int { return len(h.Dims) }

// Count returns the total number of elements (the product of the
// dimension sizes; 1 for a rank-0 scalar array).
func (h *Header) Count() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// DataBytes returns the payload length in bytes.
func (h *Header) DataBytes() int { return h.Count() * h.Elem.Size() }

// EncodedSize returns the number of header bytes this header occupies on
// the wire.
func (h *Header) EncodedSize() int {
	if h.Class == Short {
		return shortHeaderSize
	}
	return maxFixedHeaderSize + 4*len(h.Dims)
}

// TotalBytes returns header plus payload length.
func (h *Header) TotalBytes() int { return h.EncodedSize() + h.DataBytes() }

// maxElements caps the element count a header may declare: the payload
// byte size (count times the largest element width, 16) must stay
// representable in an int.
const maxElements = int(^uint(0)>>1) / 16

// checkShape is the one statement of what a header may describe: a valid
// element type, the storage class's rank and dimension limits, an
// element count that does not overflow, and for the short class a total
// size that fits VARBINARY(8000). It returns the element count. The
// dimension sizes come through dims, and only once the rank is known to
// be in range, so that a Header under construction (Validate) and header
// bytes read in place (scan) are held to the same rules; nothing is
// allocated unless the check fails.
func checkShape(class StorageClass, elem ElemType, rank int, dims dimSizes) (int, error) {
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
	// Element-count overflow would wrap every size computation that
	// follows (and let a corrupt header declare a tiny payload for huge
	// dims), so it is checked before any byte arithmetic — the invariant
	// FuzzWrap enforces. The product is taken in 128 bits: a division
	// per dimension (count > maxElements/d) would cost more than the
	// rest of a short header's check.
	count := 1
	for i := 0; i < rank; i++ {
		d := dims.at(i)
		if d < 0 || d > limit {
			return 0, fmt.Errorf("%w: %s dimension %d size %d outside [0,%d]",
				ErrBadHeader, class, i, d, limit)
		}
		if hi, lo := bits.Mul64(uint64(count), uint64(d)); hi != 0 || lo > uint64(maxElements) {
			return 0, fmt.Errorf("%w: element count overflows at dimension %d", errTooLarge, i)
		}
		count *= d
	}
	if total := shortHeaderSize + count*elem.Size(); class == Short && total > maxShortBytes {
		return 0, fmt.Errorf("%w: %d bytes > VARBINARY(%d)", errTooLarge, total, maxShortBytes)
	}
	return count, nil
}

// Validate checks the header against the limits of its storage class. It
// hands checkShape its Dims as 8-byte size fields (on the stack up to the
// short rank limit).
func (h *Header) Validate() error {
	var buf [8 * maxShortRank]byte
	enc := buf[:0]
	for _, d := range h.Dims {
		enc = binary.LittleEndian.AppendUint64(enc, uint64(d))
	}
	_, err := checkShape(h.Class, h.Elem, len(h.Dims), dimSizes{enc: enc, width: 8})
	return err
}

// dimSizes is where checkShape and scan read dimension sizes from:
// little-endian size fields of width bytes each — 2 in a short header's
// bytes, 4 in a max header's, 8 for a Header's Dims (Validate). at is a
// direct, inlinable read, so checking header bytes in place makes no call
// per dimension.
type dimSizes struct {
	enc   []byte
	width int
}

// at returns the size of dimension k.
func (d dimSizes) at(k int) int {
	switch d.width {
	case 2:
		return int(binary.LittleEndian.Uint16(d.enc[2*k:]))
	case 4:
		return int(binary.LittleEndian.Uint32(d.enc[4*k:]))
	}
	return int(int64(binary.LittleEndian.Uint64(d.enc[8*k:])))
}

// dimsOf returns the rank and the dimension sizes of the header at the
// front of b, which must hold the whole header.
func dimsOf(b []byte) (rank int, dims dimSizes) {
	if StorageClass(b[1]&classFlagMask) == Short {
		return int(b[3]), dimSizes{enc: b[8:], width: 2}
	}
	return int(binary.LittleEndian.Uint32(b[4:8])), dimSizes{enc: b[maxFixedHeaderSize:], width: 4}
}

// LinearIndex converts a multi-dimensional index into an array of h's
// shape to its column-major linear element index: idx[0] varies fastest
// (FORTRAN order, §3.5). A wrong number of indices is an ErrRank, an
// index outside its dimension an ErrBounds.
func (h *Header) LinearIndex(idx []int) (int, error) {
	if len(idx) != len(h.Dims) {
		return 0, fmt.Errorf("%w: got %d indices for rank-%d array", ErrRank, len(idx), len(h.Dims))
	}
	lin, stride := 0, 1
	for k, i := range idx {
		d := h.Dims[k]
		if i < 0 || i >= d {
			return 0, fmt.Errorf("%w: index %d = %d outside [0,%d)", ErrBounds, k, i, d)
		}
		lin += i * stride
		stride *= d
	}
	return lin, nil
}

// AppendEncode appends the wire form of h to dst and returns the extended
// slice. The header must be valid.
func (h *Header) AppendEncode(dst []byte) []byte {
	flags := byte(h.Class)&classFlagMask | formatVersion<<4
	if h.Class == Short {
		var buf [shortHeaderSize]byte
		buf[0] = magic
		buf[1] = flags
		buf[2] = byte(h.Elem)
		buf[3] = byte(len(h.Dims))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(h.Count()))
		for i, d := range h.Dims {
			binary.LittleEndian.PutUint16(buf[8+2*i:], uint16(d))
		}
		return append(dst, buf[:]...)
	}
	var buf [maxFixedHeaderSize]byte
	buf[0] = magic
	buf[1] = flags
	buf[2] = byte(h.Elem)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(h.Dims)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(h.Count()))
	dst = append(dst, buf[:]...)
	var dim [4]byte
	for _, d := range h.Dims {
		binary.LittleEndian.PutUint32(dim[:], uint32(d))
		dst = append(dst, dim[:]...)
	}
	return dst
}

// HeaderSizeFromPrefix returns the full encoded header size implied by
// the first bytes of a serialized array, without requiring the whole
// header (let alone the payload) to be present. Callers reading an
// out-of-page array incrementally use it to size the second read: a
// short-class prefix answers after 4 bytes, a max-class prefix after the
// fixed 16 (the rank field). The result is the byte count Header.Decode
// would consume.
func HeaderSizeFromPrefix(b []byte) (int, error) {
	n, f := sizeFromPrefix(b)
	if f != prefixOK {
		return 0, f.err(b)
	}
	return n, nil
}

// prefixFault names the prefix check a header fails.
type prefixFault uint8

const (
	prefixOK prefixFault = iota
	prefixShort
	prefixMagic
	prefixVersion
	prefixMaxShort
	prefixRank
)

// sizeFromPrefix is HeaderSizeFromPrefix with the failed check named,
// not described: it makes no call, so scan inlines it.
func sizeFromPrefix(b []byte) (int, prefixFault) {
	switch {
	case len(b) < 4:
		return 0, prefixShort
	case b[0] != magic:
		return 0, prefixMagic
	case b[1]>>4 != formatVersion:
		return 0, prefixVersion
	case StorageClass(b[1]&classFlagMask) == Short:
		return shortHeaderSize, prefixOK
	case len(b) < maxFixedHeaderSize:
		return 0, prefixMaxShort
	}
	const sanityRank = 1 << 20
	if rank := binary.LittleEndian.Uint32(b[4:8]); rank <= sanityRank {
		return maxFixedHeaderSize + 4*int(rank), prefixOK
	}
	return 0, prefixRank
}

// err describes the prefix check b failed.
func (f prefixFault) err(b []byte) error {
	switch f {
	case prefixShort:
		return fmt.Errorf("%w: %d bytes is shorter than any header", ErrBadHeader, len(b))
	case prefixMagic:
		return fmt.Errorf("%w: bad magic byte 0x%02x", ErrBadHeader, b[0])
	case prefixVersion:
		return fmt.Errorf("%w: unsupported format version %d", ErrBadHeader, b[1]>>4)
	case prefixMaxShort:
		return fmt.Errorf("%w: max header prefix needs %d bytes, have %d",
			ErrBadHeader, maxFixedHeaderSize, len(b))
	}
	return fmt.Errorf("%w: implausible rank %d", ErrRank, binary.LittleEndian.Uint32(b[4:8]))
}

// checkHeader validates the header at the front of b in place and
// returns the header's length and the element count: scan with no
// element to read.
func checkHeader(b []byte) (n, count int, err error) {
	n, count, _, err = scan(b, nil, 0, 0, false, "")
	return n, count, err
}

// scan is the one validator of serialized header bytes: Header.Decode,
// Wrap and Item all go through it. It checks the header at the front of
// b in place — magic, version, length, checkShape, and the declared
// element count against the product of the dimensions — and returns the
// header's length and the element count. For an Item read (item) it
// goes on, in the same pass, to the payload length, CheckFlags for a
// function of schema name taking elem arrays of class, and Array.Item's
// rank and bounds checks, and returns the bytes of the element at idx.
func scan(b []byte, idx []int, elem ElemType, class StorageClass, item bool, name string) (n, count int, p []byte, err error) {
	// sizeFromPrefix owns the prefix checks (magic, version, rank
	// sanity) and the size arithmetic, so incremental readers sizing a
	// second read (HeaderSizeFromPrefix) and this full check can never
	// disagree.
	n, f := sizeFromPrefix(b)
	if f != prefixOK {
		return 0, 0, nil, f.err(b)
	}
	got, gotClass := ElemType(b[2]), StorageClass(b[1]&classFlagMask)
	if len(b) < n {
		return 0, 0, nil, fmt.Errorf("%w: %s header needs %d bytes, have %d",
			ErrBadHeader, gotClass, n, len(b))
	}
	rank, dims := dimsOf(b)
	if count, err = checkShape(gotClass, got, rank, dims); err != nil {
		return 0, 0, nil, err
	}
	declared := binary.LittleEndian.Uint64(b[8:16])
	if gotClass == Short {
		declared = uint64(binary.LittleEndian.Uint32(b[4:8]))
	}
	if declared != uint64(count) {
		return 0, 0, nil, fmt.Errorf("%w: declared count %d != dim product %d",
			ErrBadHeader, declared, count)
	}
	if !item {
		return n, count, nil, nil
	}
	size := elemSizes[got] // a valid element type
	if data := count * size; len(b) < n+data {
		return 0, 0, nil, fmt.Errorf("%w: need %d payload bytes, have %d", ErrTruncated, data, len(b)-n)
	}
	if got != elem || gotClass != class {
		return 0, 0, nil, CheckFlags(name, elem, class, got, gotClass)
	}
	if len(idx) != rank {
		return 0, 0, nil, fmt.Errorf("%w: got %d indices for rank-%d array", ErrRank, len(idx), rank)
	}
	lin, stride := 0, 1
	for k, i := range idx {
		d := dims.at(k)
		if i < 0 || i >= d {
			return 0, 0, nil, fmt.Errorf("%w: index %d = %d outside [0,%d)", ErrBounds, k, i, d)
		}
		lin += i * stride
		stride *= d
	}
	off := n + lin*size
	return n, count, b[off : off+size], nil
}

// checkArray is checkHeader plus the payload: b must hold the whole
// array. It returns the header's length and the array's (header and
// payload).
func checkArray(b []byte) (n, total int, err error) {
	n, count, err := checkHeader(b)
	if err != nil {
		return 0, 0, err
	}
	data := count * ElemType(b[2]).Size()
	if len(b) < n+data {
		return 0, 0, fmt.Errorf("%w: need %d payload bytes, have %d", ErrTruncated, data, len(b)-n)
	}
	return n, n + data, nil
}

// Decode parses the array header at the front of b into h and returns
// the number of header bytes consumed, reusing h.Dims's memory. It
// validates structural invariants (magic byte, class limits, count
// consistency) but does not require the payload to be present in b; use
// Wrap for full validation. On an error h is left as it was.
func (h *Header) Decode(b []byte) (int, error) {
	n, _, err := checkHeader(b)
	if err != nil {
		return 0, err
	}
	h.load(b)
	return n, nil
}

// load fills h from the validated header at the front of b, reusing
// h.Dims's memory.
func (h *Header) load(b []byte) {
	rank, dims := dimsOf(b)
	h.Class, h.Elem = StorageClass(b[1]&classFlagMask), ElemType(b[2])
	if h.Dims == nil || cap(h.Dims) < rank {
		h.Dims = make([]int, rank)
	}
	h.Dims = h.Dims[:rank]
	for k := range h.Dims {
		h.Dims[k] = dims.at(k)
	}
}

// Item reads the element at idx of the serialized array at the front of
// b in one pass over its header (scan), allocating nothing: Wrap's checks
// and errors (magic, version, class, element type, rank, dimension
// sizes, declared count, payload length), then CheckFlags — the §3.5
// check of a function of schema name that takes elem arrays of class —
// then Array.Item's rank and bounds checks. It returns the element's
// bytes, which alias b; ElemType.Float and ElemType.Int read them. (name
// comes last: only a failed flag check reads it, and the arguments
// before it fit the registers of a call.)
func Item(b []byte, idx []int, elem ElemType, class StorageClass, name string) ([]byte, error) {
	_, _, p, err := scan(b, idx, elem, class, true, name)
	return p, err
}

// CheckFlags is the §3.5 type-flag check of an array argument: a
// function of schema name takes arrays of element type elem and storage
// class class, and an array flagged got, gotClass is an ErrTypeMismatch
// or an ErrClassMismatch if it differs ("we can detect type mismatches at
// runtime when the blobs are passed to the wrong functions").
func CheckFlags(name string, elem ElemType, class StorageClass, got ElemType, gotClass StorageClass) error {
	if got != elem {
		return fmt.Errorf("%w: %s function got %s array", ErrTypeMismatch, name, got)
	}
	if gotClass != class {
		return fmt.Errorf("%w: %s function got %s array", ErrClassMismatch, name, gotClass)
	}
	return nil
}

// String renders the header in a compact human-readable form, e.g.
// "float[5x5] short".
func (h *Header) String() string {
	s := h.Elem.String() + "["
	for i, d := range h.Dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return s + "] " + h.Class.String()
}
