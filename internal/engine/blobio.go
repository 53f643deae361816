package engine

import (
	"fmt"

	"sqlarray/internal/blob"
	"sqlarray/internal/core"
)

// This file is the engine half of the subarray I/O pushdown: MAX column
// values are 12-byte blob refs on the row, and the accessors here read
// only the chunk pages a consumer actually needs — the property the
// paper attributes to the SqlBytes stream wrapper ("supports reading
// only parts of the binary data if the whole array is not required",
// §3.3). No page any of them fetches stays pinned past the call.

// codecForBlob sniffs a serialized value's array header and picks the
// write-time codec: float64-family elements get the XOR-delta codec
// (Gorilla-style, exploits slowly varying scientific floats), every
// other fixed-width element gets byte-shuffled LZ at its element width,
// and bytes that do not decode as an array fall back to plain LZ. Every
// MAX value is written under this codec; the store keeps it only when
// its packed blocks save a page over raw blocks, and records the codec
// it kept — the zero Codec for raw blocks — in the chunk headers, so
// readers and in-place patches never re-sniff.
func codecForBlob(b []byte) blob.Codec {
	if h, hs, err := core.DecodeHeader(b); err == nil {
		switch h.Elem {
		case core.Float64, core.Complex128:
			// The serialized header precedes the elements, so the word
			// grid is offset by the header size within the blob stream;
			// the phase realigns the XOR deltas with element boundaries.
			return blob.Codec{Kind: blob.CodecXOR, Width: 8, Phase: hs % 8}
		default:
			if w := h.Elem.Size(); w > 0 {
				return blob.Codec{Kind: blob.CodecLZ, Width: w}
			}
		}
	}
	return blob.Codec{Kind: blob.CodecLZ, Width: 1}
}

// Every table blob read below is implemented once, against a Snapshot:
// a ref decoded from a snapshot's row must dereference the same
// commit's chunk pages, or a concurrent UPDATE that freed and reused
// the blob's pages could hand the reader foreign bytes. The forms
// without a snapshot argument read the latest committed state — they
// open a snapshot for the one call, exactly like Get and Stats do —
// so they are only safe for refs no writer can be replacing meanwhile.

// ArrayReader is how an array function (FuncDef.ArrayFn) reads its
// array argument: the paper's SqlBytes parameter of a max-schema
// function, a stream that "supports reading only parts of the binary
// data if the whole array is not required" (§3.3). It has two forms
// behind one set of methods:
//
//   - ref form: a MAX column passed by the executor as its blob ref,
//     read through the statement's snapshot. The first Header call walks
//     the blob directory once and reads the blob's first block; the
//     header comes from it, and so does every later run that lands in
//     it. Runs past it are read from that one chunk list, touching only
//     the chunk pages they overlap.
//   - bytes form: any other argument (a constructor's result, a
//     materialized value, a direct Call), read in place.
//
// Both forms validate the header as core.Wrap validates a whole array —
// the same checks, in the same order, with the same errors — so a
// function computes the same result, or fails the same way, whichever
// form its argument came in.
//
// A reader is valid for one call only. The boundary binds it to the
// call's argument before the function runs and releases it after, so it
// holds no pin, no snapshot and no argument bytes once the call returns.
type ArrayReader struct {
	b    []byte      // bytes form: the serialized array
	size int         // ref form: the blob's length; 0 in the bytes form
	br   blob.Reader // ref form: the blob's chunk list
	err  error       // the argument is not an array value, or its header is bad

	head []byte // ref form: the blob's first block; the buffer outlives the call, its contents do not
	hdr  core.Header
	hs   int // header bytes; 0 until Header has succeeded
}

// bind points r at one call's array argument v, read as of s.
func (r *ArrayReader) bind(s *Snapshot, v Value) {
	r.release()
	if v.Kind != ColMaxRef {
		r.b, r.err = v.AsBinary()
		return
	}
	ref, err := blob.DecodeRef(v.B)
	switch {
	case err != nil:
		r.err = err
	case s == nil:
		r.err = fmt.Errorf("%w: blob ref argument without a snapshot", ErrTypeError)
	case ref.IsNull():
		// Materializes to no bytes: the bytes form of nil.
	default:
		r.size = int(ref.Length)
		r.br, r.err = s.blobs.Open(ref)
	}
}

// NewArrayReader returns the bytes form of a reader over v, for a
// function hosting an ArrayFunc outside the boundary (a short schema's,
// whose arrays are on the row).
func NewArrayReader(v Value) *ArrayReader {
	r := new(ArrayReader)
	r.bind(nil, v)
	return r
}

// release drops everything r was bound to, keeping only its buffer.
func (r *ArrayReader) release() { *r = ArrayReader{head: r.head[:0]} }

// Header returns the array's decoded header.
func (r *ArrayReader) Header() (core.Header, error) {
	if r.hs == 0 && r.err == nil {
		r.err = r.readHeader()
	}
	return r.hdr, r.err
}

// readHeader decodes and validates the header, exactly as core.Wrap
// would over the whole array.
func (r *ArrayReader) readHeader() error {
	head, n := r.b, len(r.b)
	if r.size > 0 {
		n = r.size
		span := min(n, blob.BlockSize)
		if cap(r.head) < span {
			r.head = make([]byte, span)
		}
		r.head = r.head[:span]
		if err := r.br.ReadRuns(r.head, []blob.Run{{Len: span}}); err != nil {
			return err
		}
		head = r.head
		// A header past the first block (rank above ~2000) is read
		// whole; DecodeHeader sees the same bytes it would in place.
		if hs, err := core.HeaderSizeFromPrefix(head); err == nil && hs > span {
			head = make([]byte, min(hs, n))
			if err := r.br.ReadRuns(head, []blob.Run{{Len: len(head)}}); err != nil {
				return err
			}
		}
	}
	h, hs, err := core.DecodeHeader(head)
	if err != nil {
		return err
	}
	if data := h.DataBytes(); n-hs < data {
		return fmt.Errorf("%w: need %d payload bytes, have %d", core.ErrTruncated, data, n-hs)
	}
	r.hdr, r.hs = h, hs
	return nil
}

// ReadRuns copies runs of the array's payload into dst. Offsets are
// relative to the payload, as core.SubarrayPlan computes them against
// Header. The ref form serves what lies in the blob's first block from
// the copy Header kept and reads the rest in one pass over the chunks it
// touches.
func (r *ArrayReader) ReadRuns(dst []byte, runs []core.Run) error {
	h, err := r.Header()
	if err != nil {
		return err
	}
	data := h.DataBytes()
	for _, run := range runs {
		if run.Len > 0 && (run.SrcOff < 0 || run.SrcOff+run.Len > data || run.DstOff < 0 || run.DstOff+run.Len > len(dst)) {
			return fmt.Errorf("%w: run [%d,%d) -> [%d,%d) of a %d-byte payload into %d bytes",
				blob.ErrShortRead, run.SrcOff, run.SrcOff+run.Len, run.DstOff, run.DstOff+run.Len, data, len(dst))
		}
	}
	if r.size == 0 {
		payload := r.b[r.hs:]
		for _, run := range runs {
			if run.Len > 0 {
				copy(dst[run.DstOff:run.DstOff+run.Len], payload[run.SrcOff:])
			}
		}
		return nil
	}
	var rest []blob.Run
	for _, run := range runs {
		if run.Len <= 0 {
			continue
		}
		src, dstOff, n := run.SrcOff+r.hs, run.DstOff, run.Len
		if src < len(r.head) {
			k := min(n, len(r.head)-src)
			copy(dst[dstOff:dstOff+k], r.head[src:])
			src, dstOff, n = src+k, dstOff+k, n-k
		}
		if n > 0 {
			rest = append(rest, blob.Run{SrcOff: src, DstOff: dstOff, Len: n})
		}
	}
	if len(rest) == 0 {
		return nil
	}
	return r.br.ReadRuns(dst, rest)
}

// ResolveMaxAt materializes a VARBINARY(MAX) column value (the 12-byte
// ref RowView.Col yields) into the array payload bytes, as of s: the
// plain "fetch the whole value" read. The result is a fresh,
// caller-owned copy; no page stays pinned. A null ref resolves to nil.
func (t *Table) ResolveMaxAt(s *Snapshot, refBytes []byte) ([]byte, error) {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return nil, err
	}
	return s.blobs.ReadAll(ref)
}

// VisitBlobRunsAt lends fn the bytes of the given byte runs of a stored
// MAX value (header offset already applied) in place, as of s — see
// blob.Store.VisitRuns for the segment contract. This is how a
// consumer that decodes straight off the chunk pages reads a subarray
// without a staging copy.
func (t *Table) VisitBlobRunsAt(s *Snapshot, refBytes []byte, runs []blob.Run, fn func(dstOff int, seg []byte)) error {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return err
	}
	return s.blobs.VisitRuns(ref, runs, fn)
}

// BlobHeaderAt decodes just the array header of a stored MAX array as
// of s, touching only the blob's first chunk page (one short partial
// read for headers up to rank 6; a second for higher-rank dimension
// lists).
func (t *Table) BlobHeaderAt(s *Snapshot, refBytes []byte) (core.Header, int, error) {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return core.Header{}, 0, err
	}
	return blobHeader(s.blobs, ref)
}

// BlobHeader is BlobHeaderAt on the latest committed state.
func (t *Table) BlobHeader(refBytes []byte) (core.Header, int, error) {
	s := t.db.Snapshot()
	defer s.Release()
	return t.BlobHeaderAt(s, refBytes)
}

// blobHeader reads and decodes the array header of ref through bs — a
// snapshot's store for readers, the live store for the writer's own
// read under the write latch (UpdateBlobSubarrayTx).
func blobHeader(bs *blob.Store, ref blob.Ref) (core.Header, int, error) {
	if ref.IsNull() {
		return core.Header{}, 0, fmt.Errorf("%w: null blob", blob.ErrBadRef)
	}
	// One prefix read covers short headers (24 bytes) and max headers up
	// to rank 6 (16 + 4*6 = 40); only higher-rank max arrays need the
	// second read.
	prefixLen := int64(core.MaxFixedHeaderSize + 4*core.MaxShortRank)
	if prefixLen > ref.Length {
		prefixLen = ref.Length
	}
	buf := make([]byte, prefixLen)
	if err := bs.ReadAt(ref, buf, 0); err != nil {
		return core.Header{}, 0, err
	}
	hs, err := core.HeaderSizeFromPrefix(buf)
	if err != nil {
		return core.Header{}, 0, err
	}
	if int64(hs) > ref.Length {
		return core.Header{}, 0, fmt.Errorf("%w: header of %d bytes exceeds blob of %d",
			blob.ErrBadRef, hs, ref.Length)
	}
	if hs > len(buf) {
		buf = make([]byte, hs)
		if err := bs.ReadAt(ref, buf, 0); err != nil {
			return core.Header{}, 0, err
		}
	}
	h, n, err := core.DecodeHeader(buf)
	if err != nil {
		return core.Header{}, 0, err
	}
	if int64(h.TotalBytes()) != ref.Length {
		return core.Header{}, 0, fmt.Errorf("%w: header declares %d bytes, blob holds %d",
			blob.ErrBadRef, h.TotalBytes(), ref.Length)
	}
	return h, n, nil
}

// BlobSubarrayAt extracts a subarray of a stored MAX array as of s,
// reading only the header and the chunk pages the subarray's runs touch
// — the full I/O pushdown of the paper's Subarray-on-max-array case.
// offset and size follow core.Array.Subarray; collapse drops unit
// dimensions. The result is a fresh, caller-owned array.
func (t *Table) BlobSubarrayAt(s *Snapshot, refBytes []byte, offset, size []int, collapse bool) (*core.Array, error) {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return nil, err
	}
	h, hs, err := blobHeader(s.blobs, ref)
	if err != nil {
		return nil, err
	}
	runs, err := core.SubarrayPlan(h, offset, size)
	if err != nil {
		return nil, err
	}
	dims := append([]int(nil), size...)
	if collapse {
		dims = core.CollapseDims(dims)
	}
	out, err := core.NewAuto(h.Elem, dims...)
	if err != nil {
		return nil, err
	}
	if err := s.blobs.ReadRuns(ref, out.Payload(), blobRuns(runs, hs)); err != nil {
		return nil, err
	}
	return out, nil
}

// BlobSubarray is BlobSubarrayAt on the latest committed state.
func (t *Table) BlobSubarray(refBytes []byte, offset, size []int, collapse bool) (*core.Array, error) {
	s := t.db.Snapshot()
	defer s.Release()
	return t.BlobSubarrayAt(s, refBytes, offset, size, collapse)
}

// blobRuns turns a subarray plan over an array payload into byte runs
// of the stored blob, whose payload starts after the hs-byte header.
func blobRuns(runs []core.Run, hs int) []blob.Run {
	out := make([]blob.Run, len(runs))
	for i, r := range runs {
		out[i] = blob.Run{SrcOff: r.SrcOff + hs, DstOff: r.DstOff, Len: r.Len}
	}
	return out
}
