// Per-chunk compression codecs for blob storage.
//
// The paper stores arrays as chunked VARBINARY(MAX) blobs so they ride
// the engine's page machinery; once subarray I/O pushdown (PR 4) made
// reads touch only the chunks they need, raw throughput became bounded
// by I/O volume. Chunk compression is the standard next lever for
// scientific array stores (ArrayBridge, the array-storage surveys in
// PAPERS.md): fixed-width numeric data is highly byte-plane-redundant,
// and simulation floats change slowly along the fastest-varying
// dimension. Everything here is stdlib-only:
//
//   - CodecLZ: byte-shuffle at the element width (grouping the i-th
//     byte of every element, the classic "shuffle" filter) followed by
//     an LZ4-flavoured LZ77 with 16-bit match offsets.
//   - CodecXOR: Gorilla-style XOR-delta over little-endian float64
//     words, storing per word only the significant low bytes of the
//     XOR against the previous word (a zero control byte encodes an
//     exact repeat).
//   - Per-block raw fallback: any block whose encoding would not shrink
//     is stored verbatim, so incompressible data costs one header, not
//     an expansion.
//
// Compression operates on fixed BlockSize slices of the logical blob
// ("blocks"); compressed blocks are then packed into chunk pages, so a
// compressible blob occupies fewer pages — the bytes-read win — while a
// reader can still decompress exactly the blocks a subarray run
// touches (decompress-then-slice per block, never whole-blob).
package blob

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// CodecKind selects the compression family applied to a blob's blocks.
type CodecKind uint8

const (
	// codecNone stores the blob as raw blocks.
	codecNone CodecKind = iota
	// CodecLZ byte-shuffles each block at the element width, then
	// applies the LZ77 coder. Width 1 degenerates to plain LZ.
	CodecLZ
	// CodecXOR encodes each block as XOR deltas of consecutive
	// little-endian 64-bit words (FLOAT arrays; complex128 works too).
	CodecXOR
)

// Codec is the compression choice for one blob, made by the engine per
// element type at write time and recorded in each chunk page header so
// in-place rewrites re-encode with the writer's intent.
type Codec struct {
	Kind  CodecKind
	Width int // element width for CodecLZ's shuffle; ignored by others
	// Phase aligns CodecXOR's word grid with the element grid when the
	// blob's payload starts at a non-8-aligned offset (a serialized
	// array's header precedes its elements): the first Phase bytes of
	// every block are stored verbatim and the XOR words start after
	// them. BlockSize is a multiple of 8, so one phase fits all blocks.
	// The shuffle filter is phase-insensitive (a shifted byte plane is
	// still a coherent plane), so CodecLZ ignores it.
	Phase int
}

// Block geometry. A block is the unit of compression; blocks are packed
// into chunk pages, and every chunk starts on a block boundary.
// BlockSize is a multiple of 8 so float64 values never straddle a chunk
// boundary (the turbulence stencil decoder's zero-copy path relies on
// this).
const (
	// BlockSize is the logical bytes covered by one compression block.
	// Chosen so a raw block plus its headers still fits a chunk page:
	// chunkHdrSize + blockHdrSize + BlockSize <= chunkSize.
	BlockSize = 8064
	// chunkHdrSize is the chunk page's own header: version, block
	// count, and the blob's preferred codec (kind, width, phase).
	chunkHdrSize = 8
	// blockHdrSize prefixes every packed block: stored format, shuffle
	// width, stored length, logical (uncompressed) length.
	blockHdrSize = 8
	// chunkPayloadCap is the stored bytes one chunk page can pack.
	chunkPayloadCap = chunkSize - chunkHdrSize
	// maxBlocksPerChunk caps how many blocks pack into one page, which
	// bounds a chunk's logical size (and therefore the staging buffer a
	// decompressing reader may need) to 16*BlockSize = 126 kB.
	maxBlocksPerChunk = 16
	// maxChunkLogical is the largest logical byte count one chunk page
	// may cover.
	maxChunkLogical = maxBlocksPerChunk * BlockSize

	// chunkFormatVersion is stored in chunk headers.
	chunkFormatVersion = 1
)

// Stored block formats (what the bytes in the page actually are). The
// preferred Codec may be LZ while individual blocks fall back to raw.
const (
	blockRaw = 0
	blockLZ  = 1
	blockXOR = 2
)

// codecScratch holds the reusable staging buffers of one encode or
// decode pass, so per-block compression never allocates in steady
// state. The buffers never escape: encode output is copied into the
// page, decoded chunk bytes are lent to VisitRuns callbacks and dead
// once they return.
type codecScratch struct {
	a []byte // shuffle / decode staging
	b []byte // encode output / unshuffle staging
	c []byte // one decoded chunk (up to maxChunkLogical), grown on demand
}

func newCodecScratch() *codecScratch {
	return &codecScratch{
		a: make([]byte, 0, BlockSize+BlockSize/8+64),
		b: make([]byte, 0, BlockSize+BlockSize/8+64),
	}
}

// encodeBlock compresses one logical block under the blob's codec,
// returning the stored format byte, the shuffle width to record, and
// the payload to store. The payload aliases either blk itself (raw
// fallback) or scr; it is valid until the next encodeBlock call and
// must be copied into the page before then. Encodings that fail to
// shrink the block fall back to raw.
func encodeBlock(blk []byte, c Codec, scr *codecScratch) (format, width byte, payload []byte) {
	switch c.Kind {
	case CodecXOR:
		p := c.Phase
		if p < 0 || p > 7 {
			p = 0
		}
		enc := xorAppend(scr.b[:0], blk, p)
		scr.b = enc[:0]
		if len(enc) < len(blk) {
			// The width byte of an XOR block records its phase.
			return blockXOR, byte(p), enc
		}
	case CodecLZ:
		w := c.Width
		if w < 1 {
			w = 1
		}
		if w > 255 {
			w = 1 // width is stored in one byte; fall back to plain LZ
		}
		src := blk
		if w > 1 {
			scr.a = grow(scr.a, len(blk))
			shuffle(blk, w, scr.a)
			src = scr.a[:len(blk)]
		}
		enc := lzAppend(scr.b[:0], src)
		scr.b = enc[:0]
		if len(enc) < len(blk) {
			return blockLZ, byte(w), enc
		}
	}
	return blockRaw, 0, blk
}

// decodeBlock expands one stored block to its logical bytes. Raw blocks
// return the stored slice itself (aliasing the page body — zero-copy);
// compressed blocks decode into dst (which must have capacity for
// logical bytes) and return dst[:logical]. scr provides the unshuffle
// staging for CodecLZ.
func decodeBlock(format, width byte, stored []byte, logical int, dst []byte, scr *codecScratch) ([]byte, error) {
	switch format {
	case blockRaw:
		if len(stored) != logical {
			return nil, fmt.Errorf("%w: raw block stores %d bytes, logical %d", ErrBadRef, len(stored), logical)
		}
		return stored, nil
	case blockLZ:
		w := int(width)
		if w < 1 {
			w = 1
		}
		out := dst[:logical]
		if w > 1 {
			scr.a = grow(scr.a, logical)
			if err := lzDecode(stored, scr.a[:logical]); err != nil {
				return nil, err
			}
			unshuffle(scr.a[:logical], w, out)
			return out, nil
		}
		if err := lzDecode(stored, out); err != nil {
			return nil, err
		}
		return out, nil
	case blockXOR:
		p := int(width) // phase, not a shuffle width
		if p > 7 {
			return nil, errCorrupt("xor phase")
		}
		out := dst[:logical]
		if err := xorDecode(stored, out, p); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown block format %d", ErrBadRef, format)
	}
}

// grow returns b with length >= n (reallocating if needed).
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// shuffle transposes src into dst byte-plane-major at the given element
// width: all first bytes of every element, then all second bytes, and
// so on. The tail that does not fill a whole element is copied
// verbatim. len(dst) must equal len(src); dst must not alias src.
func shuffle(src []byte, width int, dst []byte) {
	n := len(src) / width * width
	rows := n / width
	for j := 0; j < width; j++ {
		plane := dst[j*rows:]
		for i := 0; i < rows; i++ {
			plane[i] = src[i*width+j]
		}
	}
	copy(dst[n:], src[n:])
}

// unshuffle inverts shuffle. len(dst) must equal len(src); dst must not
// alias src.
func unshuffle(src []byte, width int, dst []byte) {
	n := len(src) / width * width
	rows := n / width
	for j := 0; j < width; j++ {
		plane := src[j*rows:]
		for i := 0; i < rows; i++ {
			dst[i*width+j] = plane[i]
		}
	}
	copy(dst[n:], src[n:])
}

// LZ77 coder, LZ4-flavoured: a sequence is a token byte (high nibble =
// literal count, low nibble = match length - 4, 15 = extended with
// 255-continued bytes), the literals, then a 2-byte little-endian match
// offset. The final sequence carries only literals (the stream simply
// ends after them). Match offsets are bounded by the 64 kB window,
// which always covers a whole block.

const lzMinMatch = 4

// lzHashShift yields a 12-bit hash (4096-entry table) from 4 bytes.
func lzHash(v uint32) uint32 { return (v * 2654435761) >> 20 }

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// lzAppend appends the LZ77 encoding of src to dst and returns it.
func lzAppend(dst, src []byte) []byte {
	var table [4096]int32 // position+1 of a recent occurrence of a 4-byte hash
	anchor := 0
	i := 0
	limit := len(src) - lzMinMatch
	for i <= limit {
		v := le32(src[i:])
		h := lzHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > 0xFFFF || le32(src[cand:]) != v {
			i++
			continue
		}
		ml := lzMinMatch
		for i+ml < len(src) && src[cand+ml] == src[i+ml] {
			ml++
		}
		dst = lzEmit(dst, src[anchor:i], i-cand, ml)
		i += ml
		anchor = i
	}
	return lzEmit(dst, src[anchor:], 0, 0)
}

// lzEmit appends one sequence. matchLen == 0 emits the final
// literal-only sequence (no offset follows).
func lzEmit(dst, lit []byte, offset, matchLen int) []byte {
	litLen := len(lit)
	tok := byte(0)
	if litLen >= 15 {
		tok = 15 << 4
	} else {
		tok = byte(litLen) << 4
	}
	ext := 0
	if matchLen != 0 {
		ext = matchLen - lzMinMatch
		if ext >= 15 {
			tok |= 15
		} else {
			tok |= byte(ext)
		}
	}
	dst = append(dst, tok)
	if litLen >= 15 {
		dst = lzExt(dst, litLen-15)
	}
	dst = append(dst, lit...)
	if matchLen != 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if ext >= 15 {
			dst = lzExt(dst, ext-15)
		}
	}
	return dst
}

// lzExt appends the 255-continued extension of a length nibble.
func lzExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// errCorrupt wraps malformed compressed payloads; fuzzed inputs must
// land here, never in a panic.
func errCorrupt(what string) error {
	return fmt.Errorf("%w: corrupt compressed block (%s)", ErrBadRef, what)
}

// lzDecode expands src into dst, which must be exactly the logical
// length. Every bound is validated so arbitrary (corrupt or fuzzed)
// input yields an error, not a panic.
func lzDecode(src, dst []byte) error {
	r, w := 0, 0
	for {
		if r >= len(src) {
			if w != len(dst) {
				return errCorrupt("short stream")
			}
			return nil
		}
		tok := src[r]
		r++
		litLen := int(tok >> 4)
		if litLen == 15 {
			n, nr, err := lzReadExt(src, r)
			if err != nil {
				return err
			}
			litLen += n
			r = nr
		}
		if litLen > len(src)-r || litLen > len(dst)-w {
			return errCorrupt("literal run overflow")
		}
		copy(dst[w:], src[r:r+litLen])
		r += litLen
		w += litLen
		if r == len(src) {
			// Final sequence: literals only.
			if w != len(dst) {
				return errCorrupt("short stream")
			}
			return nil
		}
		if r+2 > len(src) {
			return errCorrupt("truncated offset")
		}
		offset := int(src[r]) | int(src[r+1])<<8
		r += 2
		matchLen := int(tok&0x0F) + lzMinMatch
		if tok&0x0F == 15 {
			n, nr, err := lzReadExt(src, r)
			if err != nil {
				return err
			}
			matchLen += n
			r = nr
		}
		if offset == 0 || offset > w {
			return errCorrupt("bad match offset")
		}
		if matchLen > len(dst)-w {
			return errCorrupt("match overflow")
		}
		// Byte-at-a-time: matches may overlap their own output (RLE).
		for k := 0; k < matchLen; k++ {
			dst[w] = dst[w-offset]
			w++
		}
	}
}

// lzReadExt reads a 255-continued length extension at src[r:].
func lzReadExt(src []byte, r int) (n, nr int, err error) {
	for {
		if r >= len(src) {
			return 0, 0, errCorrupt("truncated length")
		}
		b := src[r]
		r++
		n += int(b)
		if n > chunkSize*maxBlocksPerChunk {
			return 0, 0, errCorrupt("absurd length")
		}
		if b != 255 {
			return n, r, nil
		}
	}
}

// xorAppend appends the XOR-delta encoding of src to dst: per 64-bit
// little-endian word, a control byte holding the count of significant
// low bytes of word XOR previous-word (0 = exact repeat), then those
// bytes. A trailing sub-word tail is stored verbatim.
func xorAppend(dst, src []byte, phase int) []byte {
	if phase > len(src) {
		phase = len(src)
	}
	dst = append(dst, src[:phase]...)
	src = src[phase:]
	n := len(src) &^ 7
	var prev uint64
	for o := 0; o < n; o += 8 {
		x := binary.LittleEndian.Uint64(src[o:])
		d := x ^ prev
		prev = x
		if d == 0 {
			dst = append(dst, 0)
			continue
		}
		sig := 8 - bits.LeadingZeros64(d)/8
		dst = append(dst, byte(sig))
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], d)
		dst = append(dst, tmp[:sig]...)
	}
	return append(dst, src[n:]...)
}

// xorDecode expands src into dst, which must be exactly the logical
// length. Bounds are validated for fuzzed input.
func xorDecode(src, dst []byte, phase int) error {
	if phase > len(dst) {
		phase = len(dst)
	}
	if phase > len(src) {
		return errCorrupt("truncated xor preamble")
	}
	copy(dst[:phase], src[:phase])
	src, dst = src[phase:], dst[phase:]
	n := len(dst) &^ 7
	r := 0
	var prev uint64
	for w := 0; w < n; w += 8 {
		if r >= len(src) {
			return errCorrupt("truncated xor stream")
		}
		sig := int(src[r])
		r++
		if sig > 8 {
			return errCorrupt("xor control byte")
		}
		if sig > len(src)-r {
			return errCorrupt("truncated xor delta")
		}
		var tmp [8]byte
		copy(tmp[:], src[r:r+sig])
		r += sig
		d := binary.LittleEndian.Uint64(tmp[:])
		prev ^= d
		binary.LittleEndian.PutUint64(dst[w:], prev)
	}
	if len(src)-r != len(dst)-n {
		return errCorrupt("xor tail length")
	}
	copy(dst[n:], src[r:])
	return nil
}
