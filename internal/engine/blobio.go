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
	var h core.Header
	if hs, err := h.Decode(b); err == nil {
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

// ArrayReader is the one way to read part of a stored array: how an
// array function (FuncDef.ArrayFn) reads its array argument — the
// paper's SqlBytes parameter of a max-schema function, a stream that
// "supports reading only parts of the binary data if the whole array is
// not required" (§3.3) — and how Table.ArrayAt, the stores and a
// subscript UPDATE read a stored MAX array. It has two forms behind one
// set of methods:
//
//   - ref form: a blob ref, read through one blob store — a snapshot's,
//     or the live store for the writer's own read. Binding walks the
//     blob directory once. The header comes from the blob's first
//     block, lent by its chunk page for the length of one visit and
//     never copied; a read that needs the header and payload runs (Read
//     or Subarray before any Header call) plans its runs inside
//     that same visit and copies what lies in the first block straight
//     from it. Runs past it are read from the one chunk list, touching
//     only the chunk pages they overlap.
//   - bytes form: any other argument (a constructor's result, a
//     materialized value, a direct Call), read in place.
//
// Both forms validate the header as core.Wrap validates a whole array —
// the same checks, in the same order, with the same errors; a value
// with bytes past its payload is accepted, as Wrap accepts it — so a
// reader computes the same result, or fails the same way, whichever form
// its array came in.
//
// A reader is valid for one call only: an array function's reader is
// bound to the call's argument before the function runs and released
// after, so it holds no pin, no snapshot and no argument bytes once the
// call returns; Table.ArrayAt's is valid while its snapshot is.
type ArrayReader struct {
	b    []byte      // bytes form: the serialized array
	size int         // ref form: the blob's length; 0 in the bytes form
	br   blob.Reader // ref form: the blob's chunk list
	err  error       // the argument is not an array value, or its header is bad

	hdr core.Header
	hs  int // header bytes; 0 until the header has been read

	cell [16]byte    // Elem's element: the widest, a double complex
	run  [1]core.Run // Elem's one run
}

// bind points r at one array argument v. A ColMaxRef argument is a blob
// ref read through bs: a snapshot's store, or the DB's live store for
// the writer's own read; nil when there is no store to read it through.
func (r *ArrayReader) bind(bs *blob.Store, v Value) {
	r.release()
	if v.Kind != ColMaxRef {
		r.b, r.err = v.AsBinary()
		return
	}
	ref, err := blob.DecodeRef(v.B)
	switch {
	case err != nil:
		r.err = err
	case bs == nil:
		r.err = fmt.Errorf("%w: blob ref argument without a snapshot", ErrTypeError)
	case ref.IsNull():
		// Materializes to no bytes: the bytes form of nil.
	default:
		r.size = int(ref.Length)
		r.err = r.br.Open(bs, ref)
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

// ArrayAt returns a reader over the stored MAX array refBytes (the
// 12-byte ref GetAt and FillBatch yield) as of s. It is valid until s is
// released.
func (t *Table) ArrayAt(s *Snapshot, refBytes []byte) *ArrayReader {
	r := new(ArrayReader)
	r.bind(&s.blobs, Value{Kind: ColMaxRef, B: refBytes})
	return r
}

// release drops everything r was bound to. It keeps the memory of the
// chunk list and of the header's dimension sizes, which the next bind
// reuses, as the boundary's reader does from call to call.
func (r *ArrayReader) release() {
	r.br.Release()
	*r = ArrayReader{br: r.br, hdr: core.Header{Dims: r.hdr.Dims[:0]}}
}

// Header returns the array's decoded header. Its Dims are valid while r
// is bound.
func (r *ArrayReader) Header() (core.Header, error) {
	if r.hs == 0 && r.err == nil {
		r.err = r.visitHead(nil)
	}
	return r.hdr, r.err
}

// visitHead decodes and validates the header, exactly as core.Wrap would
// over the whole array, from the array's first bytes, and then calls fn
// (when not nil) with them: the whole value in the bytes form; in the
// ref form the blob's first block, lent for the length of the visit. A
// header longer than the first block (rank above ~2000) is read whole
// instead, and fn gets that copy, which holds no payload bytes. A header
// or read error is kept in r.err; fn's error is only returned.
func (r *ArrayReader) visitHead(fn func(first []byte) error) error {
	if r.size == 0 {
		return r.visitFirst(r.b, fn)
	}
	var ferr error
	long := 0 // the header's size, when it runs past the lent block
	err := r.br.VisitRuns([]blob.Run{{Len: min(r.size, blob.BlockSize)}}, func(dstOff int, first []byte) {
		if dstOff != 0 {
			return // a first block split across chunks: Read fetches the rest
		}
		if hs, err := core.HeaderSizeFromPrefix(first); err == nil && hs > len(first) {
			long = hs
			return
		}
		ferr = r.visitFirst(first, fn)
	})
	if err == nil && long > 0 {
		// Header.Decode sees the bytes it would see in place.
		first := make([]byte, min(long, r.size))
		if err = r.br.ReadRuns(first, []blob.Run{{Len: len(first)}}); err == nil {
			ferr = r.visitFirst(first, fn)
		}
	}
	if err != nil {
		r.err = err
		return err
	}
	return ferr
}

// visitFirst decodes the header at the front of first and, if it is
// valid and fn is not nil, calls fn(first).
func (r *ArrayReader) visitFirst(first []byte, fn func(first []byte) error) error {
	n := len(r.b)
	if r.size > 0 {
		n = r.size
	}
	hs, err := r.hdr.Decode(first)
	if err == nil && n-hs < r.hdr.DataBytes() {
		err = fmt.Errorf("%w: need %d payload bytes, have %d", core.ErrTruncated, r.hdr.DataBytes(), n-hs)
	}
	if err != nil {
		r.err = err
		return err
	}
	r.hs = hs
	if fn == nil {
		return nil
	}
	return fn(first)
}

// Read reads part of the array's payload: plan, given the header,
// returns the destination and the runs to copy into it, with offsets
// relative to the payload as core.SubarrayPlan computes them against the
// header; a plan error is Read's error. When the header has not been read
// yet, the ref form runs plan inside the visit that reads the header and
// copies the parts of the runs that lie in the blob's first block
// straight from it, so a read that stays in that block fetches one chunk
// page. The rest is read in one pass over the chunks it touches.
func (r *ArrayReader) Read(plan func(h core.Header) (dst []byte, runs []core.Run, err error)) error {
	var (
		dst    []byte
		runs   []core.Run
		served int // array bytes at the front that read copied
	)
	read := func(first []byte) (err error) {
		if dst, runs, err = plan(r.hdr); err != nil {
			return err
		}
		data := r.hdr.DataBytes()
		for _, run := range runs {
			if run.Len > 0 && (run.SrcOff < 0 || run.SrcOff+run.Len > data || run.DstOff < 0 || run.DstOff+run.Len > len(dst)) {
				return fmt.Errorf("%w: run [%d,%d) -> [%d,%d) of a %d-byte payload into %d bytes",
					blob.ErrShortRead, run.SrcOff, run.SrcOff+run.Len, run.DstOff, run.DstOff+run.Len, data, len(dst))
			}
		}
		for _, run := range runs {
			if src := r.hs + run.SrcOff; run.Len > 0 && src < len(first) {
				copy(dst[run.DstOff:run.DstOff+run.Len], first[src:])
			}
		}
		served = len(first)
		return nil
	}
	var err error
	switch {
	case r.err != nil:
		return r.err
	case r.hs == 0:
		err = r.visitHead(read)
	default:
		err = read(r.b) // nil in the ref form: nothing served
	}
	if err != nil {
		return err
	}
	var few [4]blob.Run // room for a whole-array or rank-1 window read's one run
	rest := few[:0]
	for _, run := range runs {
		src, end := r.hs+run.SrcOff, r.hs+run.SrcOff+run.Len
		if from := max(src, served); from < end {
			rest = append(rest, blob.Run{SrcOff: from, DstOff: run.DstOff + from - src, Len: end - from})
		}
	}
	if len(rest) == 0 {
		return nil
	}
	return r.br.ReadRuns(dst, rest)
}

// Elem reads one element of the array in one Read: locate, given the
// header, returns the element's linear index or an error (a schema's
// §3.5 check, an index error), which is Elem's. It plans the element's
// one run itself and copies the element into the reader's own cell, so
// it allocates nothing; the bytes it returns are valid until r's next
// read.
func (r *ArrayReader) Elem(locate func(h core.Header) (int, error)) ([]byte, error) {
	size := 0
	err := r.Read(func(h core.Header) ([]byte, []core.Run, error) {
		lin, err := locate(h)
		if err != nil {
			return nil, nil, err
		}
		size = h.Elem.Size()
		r.run[0] = core.Run{SrcOff: lin * size, Len: size}
		return r.cell[:size], r.run[:], nil
	})
	if err != nil {
		return nil, err
	}
	return r.cell[:size], nil
}

// Subarray reads the subarray at offset of the given size (the
// arguments of core.Array.Subarray; collapse drops unit dimensions) into
// a fresh array, in one Read: vet, when not nil, checks the header first
// (a schema's §3.5 check), then core.SubarrayPlan plans the runs and
// alloc makes the result from the element type and the result's dims.
func (r *ArrayReader) Subarray(offset, size []int, collapse bool, vet func(core.Header) error, alloc func(core.ElemType, ...int) (*core.Array, error)) (*core.Array, error) {
	var out *core.Array
	err := r.Read(func(h core.Header) ([]byte, []core.Run, error) {
		if vet != nil {
			if err := vet(h); err != nil {
				return nil, nil, err
			}
		}
		runs, err := core.SubarrayPlan(h, offset, size)
		if err != nil {
			return nil, nil, err
		}
		dims := size
		if collapse {
			dims = core.CollapseDims(size)
		}
		if out, err = alloc(h.Elem, dims...); err != nil {
			return nil, nil, err
		}
		return out.Payload(), runs, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResolveMaxAt materializes a VARBINARY(MAX) column value (the 12-byte
// ref GetAt and FillBatch yield) into the array payload bytes, as of s: the
// plain "fetch the whole value" read. The result is a fresh,
// caller-owned copy; no page stays pinned. A null ref resolves to nil.
func (t *Table) ResolveMaxAt(s *Snapshot, refBytes []byte) ([]byte, error) {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return nil, err
	}
	return s.blobs.ReadAll(ref)
}

// BlobAt opens the stored MAX value refBytes (the 12-byte ref GetAt
// and FillBatch yield) as of s: one directory walk, after which the
// reader's VisitRuns and ReadRuns read any byte runs of the blob (header
// offset already applied) off its chunk pages. This is how a consumer
// that knows the array's header without reading it (the turbulence
// store's fixed cube shape) reads many stencils of one blob without a
// staging copy and without walking the directory again. The reader is
// valid until s is released.
func (t *Table) BlobAt(s *Snapshot, refBytes []byte) (blob.Reader, error) {
	ref, err := blob.DecodeRef(refBytes)
	if err != nil {
		return blob.Reader{}, err
	}
	var r blob.Reader
	err = r.Open(&s.blobs, ref)
	return r, err
}

// BlobHeader decodes the array header of a stored MAX array and returns
// it with its encoded size, as of the latest committed state.
func (t *Table) BlobHeader(refBytes []byte) (core.Header, int, error) {
	s := t.db.Snapshot()
	defer s.Release()
	r := t.ArrayAt(s, refBytes)
	h, err := r.Header()
	return h, r.hs, err
}

// BlobSubarray extracts a subarray of a stored MAX array as of the
// latest committed state, reading only the chunk pages the header and
// the subarray's runs touch — the full I/O pushdown of the paper's
// Subarray-on-max-array case. offset, size and collapse follow
// core.Array.Subarray, and so does the result's class; the result is a
// fresh, caller-owned array.
func (t *Table) BlobSubarray(refBytes []byte, offset, size []int, collapse bool) (*core.Array, error) {
	s := t.db.Snapshot()
	defer s.Release()
	return t.ArrayAt(s, refBytes).Subarray(offset, size, collapse, nil, core.NewAuto)
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
