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
// bytes read in place (checkHeader) are held to the same rules; nothing
// is allocated unless the check fails.
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

// dimSizes is where checkShape and View read dimension sizes from:
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
// fixed 16 (the rank field). The result is the byte count DecodeHeader
// would consume.
func HeaderSizeFromPrefix(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: %d bytes is shorter than any header", ErrBadHeader, len(b))
	}
	if b[0] != magic {
		return 0, fmt.Errorf("%w: bad magic byte 0x%02x", ErrBadHeader, b[0])
	}
	if ver := b[1] >> 4; ver != formatVersion {
		return 0, fmt.Errorf("%w: unsupported format version %d", ErrBadHeader, ver)
	}
	if StorageClass(b[1]&classFlagMask) == Short {
		return shortHeaderSize, nil
	}
	if len(b) < maxFixedHeaderSize {
		return 0, fmt.Errorf("%w: max header prefix needs %d bytes, have %d",
			ErrBadHeader, maxFixedHeaderSize, len(b))
	}
	rank := binary.LittleEndian.Uint32(b[4:8])
	const sanityRank = 1 << 20
	if rank > sanityRank {
		return 0, fmt.Errorf("%w: implausible rank %d", ErrRank, rank)
	}
	return maxFixedHeaderSize + 4*int(rank), nil
}

// checkHeader validates the header at the front of b in place — magic,
// version, length, checkShape, and the declared element count against
// the product of the dimensions — and returns the header's length and
// the element count. It is the only validator of serialized header
// bytes: DecodeHeader, Wrap and ViewOf all go through it.
func checkHeader(b []byte) (n, count int, err error) {
	// HeaderSizeFromPrefix owns the prefix checks (magic, version, rank
	// sanity) and the size arithmetic, so incremental readers sizing a
	// second read and this full check can never disagree.
	if n, err = HeaderSizeFromPrefix(b); err != nil {
		return 0, 0, err
	}
	v := View{b}
	class := v.Class()
	if len(b) < n {
		return 0, 0, fmt.Errorf("%w: %s header needs %d bytes, have %d",
			ErrBadHeader, class, n, len(b))
	}
	rank, _, dims := v.shape()
	if count, err = checkShape(class, v.ElemType(), rank, dims); err != nil {
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

// DecodeHeader parses an array header from the front of b, returning the
// header and the number of header bytes consumed. It validates structural
// invariants (magic byte, class limits, count consistency) but does not
// require the payload to be present in b; use Wrap for full validation.
func DecodeHeader(b []byte) (Header, int, error) {
	n, _, err := checkHeader(b)
	if err != nil {
		return Header{}, 0, err
	}
	return View{b}.header(), n, nil
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
