// Package blob implements out-of-page binary large object storage for the
// sqlarray engine, mirroring SQL Server's VARBINARY(MAX) handling that the
// paper builds on (§3.3): blobs larger than a data page are stored outside
// the row as a tree of chunk pages, reached through a stream wrapper that
// "supports reading only parts of the binary data if the whole array is
// not required" — the property that makes subsetting max arrays cheap.
//
// Layout: a blob is a chain of directory pages (TypeBlobTree), each
// holding 8-byte (chunk page id, logical length) entries, and the chunk
// pages (TypeBlobData) they name. The row stores only a fixed-size Ref.
// There is one chunk layout: the logical blob is cut into BlockSize
// blocks, each encoded under the blob's codec (see codec.go) and packed
// behind a chunk header — several blocks per page when they compress.
// A blob whose codec would not save a page is stored as raw blocks
// under the zero Codec instead: one BlockSize block per chunk page.
//
// A Ref does not say how its bytes are stored, and callers never need
// to know. There is one way in and one way out:
//
//   - write (write.go) lays a blob out under a codec on pages from a
//     page sink. Write and WriteFresh are its two sinks; WriteRuns
//     (free.go) patches an existing blob in place.
//   - Open reads: it walks the directory once, through the store's
//     pages.Fetcher — the live pool, or a snapshot — and returns a
//     Reader over the chunk list. Reader.VisitRuns, given byte runs of
//     the logical blob, fetches each touched chunk once and lends the
//     caller the bytes: a chunk holding one raw block in place off the
//     page, any other chunk decoded, only the blocks the runs overlap,
//     into pooled scratch. Reader.ReadRuns is VisitRuns with a copying
//     callback, and ReadAll is Open plus ReadRuns of the whole blob.
//     Nothing a read pins or decodes outlives the call: a caller that
//     keeps bytes past its callback copies them.
package blob

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
)

// chunkSize is the payload capacity of one blob chunk page.
const chunkSize = pages.PageSize - pages.HeaderSize

// RefSize is the encoded size of a Ref as stored inside a row.
const RefSize = 12

// Errors returned by the blob store.
var (
	ErrBadRef    = errors.New("blob: invalid blob reference")
	ErrShortRead = errors.New("blob: read past end of blob")
)

// Ref locates a blob: the first directory page and the total length.
// A zero Ref (Root == 0) is the null blob.
type Ref struct {
	Root   pages.PageID
	Length int64
}

// IsNull reports whether the Ref addresses no blob.
func (r Ref) IsNull() bool { return r.Root == pages.InvalidPageID }

// Encode writes the Ref to a fixed 12-byte buffer.
func (r Ref) Encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst, uint32(r.Root))
	binary.LittleEndian.PutUint64(dst[4:], uint64(r.Length))
}

// DecodeRef reads a Ref from its fixed 12-byte form.
func DecodeRef(b []byte) (Ref, error) {
	if len(b) < RefSize {
		return Ref{}, fmt.Errorf("%w: %d bytes", ErrBadRef, len(b))
	}
	return Ref{
		Root:   pages.PageID(binary.LittleEndian.Uint32(b)),
		Length: int64(binary.LittleEndian.Uint64(b[4:])),
	}, nil
}

// counters are the store's I/O counters at chunk granularity, atomics
// because parallel scan workers read the store concurrently; the
// registry (RegisterMetrics) is the one place to read them. bytesRead
// and bytesWritten count logical bytes, the stored* counters the chunk
// page bytes behind them, headers included.
type counters struct {
	directoryReads     obs.Counter
	chunkReads         obs.Counter
	bytesRead          obs.Counter
	chunksWritten      obs.Counter
	bytesWritten       obs.Counter
	pagesFreed         obs.Counter // pages Free returned to the free list
	pagesReused        obs.Counter // allocations served from the free list
	storedBytesWritten obs.Counter
	storedBytesRead    obs.Counter
}

// RegisterMetrics attaches the store's counters to reg under the
// "blob." prefix. WithFetcher views share the primary store's
// counters, so snapshot-scan reads land in the same series.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	c := s.stats
	reg.Attach("blob.directory_reads", &c.directoryReads)
	reg.Attach("blob.chunk_reads", &c.chunkReads)
	reg.Attach("blob.bytes_read", &c.bytesRead)
	reg.Attach("blob.chunks_written", &c.chunksWritten)
	reg.Attach("blob.bytes_written", &c.bytesWritten)
	reg.Attach("blob.pages_freed", &c.pagesFreed)
	reg.Attach("blob.pages_reused", &c.pagesReused)
	reg.Attach("blob.stored_bytes_written", &c.storedBytesWritten)
	reg.Attach("blob.stored_bytes_read", &c.storedBytesRead)
}

// Store reads and writes blobs over a buffer pool. It is safe for
// concurrent use to the same degree the underlying pool is.
//
// Read paths resolve page fetches through fx — the pool itself on the
// primary store, or a pages.Snapshot on stores derived with
// WithFetcher, which pins chunk pages as of a frozen commit. Write
// paths always go through bp and are only legal on the primary store.
type Store struct {
	bp    *pages.BufferPool
	fx    pages.Fetcher
	stats *counters
}

// NewStore creates a blob store on bp.
func NewStore(bp *pages.BufferPool) *Store {
	return &Store{bp: bp, fx: bp, stats: &counters{}}
}

// WithFetcher returns a read-only view of the store whose page fetches
// resolve through fx (typically a pages.Snapshot). The view shares the
// primary store's counters; writing through it is a programming error.
func (s *Store) WithFetcher(fx pages.Fetcher) *Store {
	return &Store{fx: fx, stats: s.stats}
}

// ChunkReads returns blob.chunk_reads of this store and its WithFetcher
// views alone; a registry sums every store attached to it. EXPLAIN
// ANALYZE samples it.
func (s *Store) ChunkReads() uint64 { return s.stats.chunkReads.Load() }

// scratchPool recycles codec staging buffers across read/write calls so
// decompressing reads do not allocate per call. The buffers never leak
// out of a call.
var scratchPool = sync.Pool{New: func() any { return newCodecScratch() }}

// dirEntrySize is one directory entry: the chunk page id and the
// chunk's logical length, both uint32.
const dirEntrySize = 8

// chunkInfo locates one chunk page and the logical byte range it
// covers, [off, off+n), as its directory entry records it.
type chunkInfo struct {
	id  pages.PageID
	off int64
	n   int
}

// findChunk returns the index of the chunk containing logical offset
// off — the last chunk whose start is <= off — or -1 when off precedes
// the first chunk.
func findChunk(chunks []chunkInfo, off int64) int {
	lo, hi := 0, len(chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if chunks[mid].off <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// walkDir walks a blob's directory chain, returning the chunk list and
// the directory page ids. The entries must cover exactly ref.Length.
func (s *Store) walkDir(ref Ref) (chunks []chunkInfo, dirIDs []pages.PageID, err error) {
	if ref.IsNull() {
		return nil, nil, nil
	}
	id := ref.Root
	var off int64
	for id != pages.InvalidPageID {
		f, err := s.fx.Fetch(id)
		if err != nil {
			return nil, nil, err
		}
		if f.Page.Type() != pages.TypeBlobTree {
			s.fx.Unpin(f, false)
			return nil, nil, fmt.Errorf("%w: page %d is not a blob directory", ErrBadRef, id)
		}
		s.stats.directoryReads.Add(1)
		used := f.Page.Used()
		body := f.Page.Body()
		chunks = slices.Grow(chunks, used/dirEntrySize)
		for i := 0; i+dirEntrySize <= used; i += dirEntrySize {
			n := int(binary.LittleEndian.Uint32(body[i+4:]))
			if n <= 0 || n > maxChunkLogical {
				s.fx.Unpin(f, false)
				return nil, nil, fmt.Errorf("%w: directory entry covers %d bytes", ErrBadRef, n)
			}
			chunks = append(chunks, chunkInfo{
				id:  pages.PageID(binary.LittleEndian.Uint32(body[i:])),
				off: off,
				n:   n,
			})
			off += int64(n)
		}
		dirIDs = append(dirIDs, id)
		next := f.Page.Next()
		s.fx.Unpin(f, false)
		id = next
	}
	if off != ref.Length {
		return nil, nil, fmt.Errorf("%w: directory covers %d bytes, ref declares %d",
			ErrBadRef, off, ref.Length)
	}
	return chunks, dirIDs, nil
}

// errStopVisit short-circuits a block walk once past the wanted range.
var errStopVisit = errors.New("blob: stop block visit")

// forEachBlock walks the packed block sequence of a chunk page body,
// invoking fn with each block's chunk-relative logical offset, header
// fields and stored payload. Every bound is validated so a corrupt page
// yields an error, never a panic.
func forEachBlock(body []byte, used int, fn func(blkOff int, format, width byte, logical int, stored []byte) error) error {
	if used < chunkHdrSize || used > len(body) {
		return errCorrupt("chunk header")
	}
	if body[0] != chunkFormatVersion {
		return errCorrupt("chunk format version")
	}
	nBlocks := int(binary.LittleEndian.Uint16(body[1:]))
	r := chunkHdrSize
	blkOff := 0
	for b := 0; b < nBlocks; b++ {
		if r+blockHdrSize > used {
			return errCorrupt("block header")
		}
		format := body[r]
		width := body[r+1]
		stored := int(binary.LittleEndian.Uint16(body[r+2:]))
		logical := int(binary.LittleEndian.Uint16(body[r+4:]))
		r += blockHdrSize
		if stored > used-r || logical == 0 || logical > BlockSize {
			return errCorrupt("block length")
		}
		if err := fn(blkOff, format, width, logical, body[r:r+stored]); err != nil {
			return err
		}
		r += stored
		blkOff += logical
	}
	return nil
}

// chunkCodec reads the preferred codec recorded in a chunk page header.
func chunkCodec(p *pages.Page) (Codec, error) {
	if p.Used() < chunkHdrSize {
		return Codec{}, errCorrupt("chunk header")
	}
	body := p.Body()
	return Codec{Kind: CodecKind(body[3]), Width: int(body[4]), Phase: int(body[5] & 7)}, nil
}

// decodeBlocks expands the blocks of a chunk page that overlap the
// chunk-relative logical range [lo, hi) into dst, which must be exactly
// the chunk's logical size. Bytes of dst outside the decoded blocks are
// left untouched — callers must only read the requested range. A page
// whose blocks end before hi (clipped to dst) is an ErrShortRead: dst
// may be recycled scratch, so an undecoded tail must never reach the
// caller. This is the package's only block-decode loop: the read
// primitive passes the union range its runs need, WriteRuns the whole
// chunk.
func decodeBlocks(p *pages.Page, dst []byte, lo, hi int, scr *codecScratch) error {
	end := 0 // logical bytes the walked blocks cover
	err := forEachBlock(p.Body(), p.Used(), func(blkOff int, format, width byte, logical int, stored []byte) error {
		if blkOff >= hi {
			return errStopVisit
		}
		end = blkOff + logical
		if end <= lo {
			return nil
		}
		if end > len(dst) {
			return errCorrupt("chunk logical overflow")
		}
		out := dst[blkOff:end]
		dec, err := decodeBlock(format, width, stored, logical, out, scr)
		if err != nil {
			return err
		}
		if &dec[0] != &out[0] {
			copy(out, dec) // raw block: copy out of the page body
		}
		return nil
	})
	if err == errStopVisit {
		return nil
	}
	if err == nil && end < min(hi, len(dst)) {
		return fmt.Errorf("%w: chunk page %d holds %d logical bytes, wanted [%d,%d)", ErrShortRead, p.ID, end, lo, hi)
	}
	return err
}

// rawChunk returns the logical bytes of a chunk page holding exactly
// one raw block of n bytes — every chunk of a blob stored as raw blocks
// but possibly its last — in place in the page body. ok is false for
// any other chunk, which decodeBlocks expands instead. p must come from
// fetchChunk, which bounds Used by the page body.
func rawChunk(p *pages.Page, n int) (b []byte, ok bool) {
	body := p.Body()
	if p.Used() != chunkHdrSize+blockHdrSize+n || body[0] != chunkFormatVersion ||
		binary.LittleEndian.Uint16(body[1:]) != 1 {
		return nil, false
	}
	blk := body[chunkHdrSize:]
	stored, logical := int(binary.LittleEndian.Uint16(blk[2:])), int(binary.LittleEndian.Uint16(blk[4:]))
	if blk[0] != blockRaw || stored != n || logical != n {
		return nil, false
	}
	return blk[blockHdrSize : blockHdrSize+n], true
}

// fetchChunk pins one chunk page for reading — the only place a
// TypeBlobData page is fetched through the store's Fetcher. The caller
// owns the pin.
func (s *Store) fetchChunk(ci chunkInfo) (*pages.Frame, error) {
	f, err := s.fx.Fetch(ci.id)
	if err != nil {
		return nil, err
	}
	if f.Page.Type() != pages.TypeBlobData {
		s.fx.Unpin(f, false)
		return nil, fmt.Errorf("%w: page %d is not a blob chunk", ErrBadRef, ci.id)
	}
	if f.Page.Used() > chunkSize {
		s.fx.Unpin(f, false)
		return nil, fmt.Errorf("%w: chunk page %d claims %d used bytes", ErrBadRef, ci.id, f.Page.Used())
	}
	s.stats.chunkReads.Add(1)
	s.stats.storedBytesRead.Add(uint64(f.Page.Used()))
	return f, nil
}

// piece is the part of one run that lives on one chunk: n bytes at
// chunk-relative offset lo of chunk c, bound for destination offset
// dstOff.
type piece struct {
	c, lo, n, dstOff int
}

// Reader is one blob's chunk list, walked once: every read of a blob
// goes through one, so a caller that reads the same blob several times
// in one call — an array's header first, then the runs the header
// implies — reads the directory pages once. A Reader pins nothing; it
// reads through the store it was opened on, and is valid as long as
// that store's view is (a snapshot's store: until the snapshot is
// released). It must not outlive the call it was opened for.
type Reader struct {
	s      *Store
	ref    Ref
	chunks []chunkInfo
}

// Open walks ref's directory and returns a Reader over the blob. A null
// ref opens an empty Reader whose every non-empty read fails.
func (s *Store) Open(ref Ref) (Reader, error) {
	chunks, _, err := s.walkDir(ref)
	if err != nil {
		return Reader{}, err
	}
	return Reader{s: s, ref: ref, chunks: chunks}, nil
}

// checkRuns validates runs against a blob of ref's length and returns
// the bytes they cover.
func checkRuns(ref Ref, runs []Run) (int, error) {
	total := 0
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		if end := int64(r.SrcOff) + int64(r.Len); r.SrcOff < 0 || end > ref.Length {
			if ref.IsNull() {
				return 0, fmt.Errorf("%w: null blob", ErrBadRef)
			}
			return 0, fmt.Errorf("%w: run [%d,%d) of %d", ErrShortRead, r.SrcOff, end, ref.Length)
		}
		total += r.Len
	}
	return total, nil
}

// VisitRuns is the one read primitive: it calls fn with the bytes of
// every run, as segments of at most one chunk each. dstOff is the run's
// DstOff plus the segment's progress within the run, so a copying
// caller writes seg at dst[dstOff:]; segments arrive grouped by chunk,
// not in run order. Runs with Len <= 0 are skipped.
//
// One call fetches every touched chunk exactly once, however many runs
// land on it. The segments of a chunk holding one raw block alias the
// pinned page body; any other chunk decodes only the blocks overlapping
// the union of the ranges its runs need into pooled scratch. Either way
// seg is valid only until fn returns: no pin and no buffer outlives the
// call.
func (r *Reader) VisitRuns(runs []Run, fn func(dstOff int, seg []byte)) error {
	total, err := checkRuns(r.ref, runs)
	if err != nil || total == 0 {
		return err
	}
	return r.visit(runs, total, fn)
}

// visit emits the segments of runs, which checkRuns has validated and
// which cover total bytes.
func (r *Reader) visit(runs []Run, total int, fn func(dstOff int, seg []byte)) error {
	// walkDir checks the chunks cover exactly [0, ref.Length), so every
	// run maps onto them.
	chunks := r.chunks
	scr := scratchPool.Get().(*codecScratch)
	defer scratchPool.Put(scr)
	// One piece per run plus one per chunk boundary a run crosses; no
	// chunk covers fewer than BlockSize bytes except a blob's last.
	pieces := slices.Grow(scr.pieces[:0], len(runs)+total/BlockSize+4)
	sorted := true
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		read := 0
		for c := findChunk(chunks, int64(r.SrcOff)); read < r.Len; c++ {
			lo := int(int64(r.SrcOff+read) - chunks[c].off)
			n := min(chunks[c].n-lo, r.Len-read)
			if len(pieces) > 0 && c < pieces[len(pieces)-1].c {
				sorted = false
			}
			pieces = append(pieces, piece{c: c, lo: lo, n: n, dstOff: r.DstOff + read})
			read += n
		}
	}
	if !sorted {
		// core.SubarrayPlan emits runs in ascending source order, so only
		// hand-built run lists pay for this.
		slices.SortStableFunc(pieces, func(a, b piece) int { return a.c - b.c })
	}
	scr.pieces = pieces // the grown buffer serves the scratch's next read
	for i := 0; i < len(pieces); {
		j := i + 1
		for j < len(pieces) && pieces[j].c == pieces[i].c {
			j++
		}
		if err := r.s.visitChunk(chunks[pieces[i].c], pieces[i:j], scr, fn); err != nil {
			return err
		}
		i = j
	}
	r.s.stats.bytesRead.Add(uint64(total))
	return nil
}

// visitChunk fetches one chunk and emits the pieces that live on it.
func (s *Store) visitChunk(ci chunkInfo, ps []piece, scr *codecScratch, fn func(dstOff int, seg []byte)) error {
	f, err := s.fetchChunk(ci)
	if err != nil {
		return err
	}
	defer s.fx.Unpin(f, false)
	body, ok := rawChunk(&f.Page, ci.n)
	if !ok {
		lo, hi := ci.n, 0
		for _, p := range ps {
			lo, hi = min(lo, p.lo), max(hi, p.lo+p.n)
		}
		scr.c = grow(scr.c, ci.n)
		if err := decodeBlocks(&f.Page, scr.c, lo, hi, scr); err != nil {
			return err
		}
		body = scr.c
	}
	for _, p := range ps {
		fn(p.dstOff, body[p.lo:p.lo+p.n])
	}
	return nil
}

// ReadAll fetches the entire blob.
func (s *Store) ReadAll(ref Ref) ([]byte, error) {
	if ref.IsNull() {
		return nil, nil
	}
	r, err := s.Open(ref)
	if err != nil {
		return nil, err
	}
	out := make([]byte, ref.Length)
	if err := r.ReadRuns(out, []Run{{Len: len(out)}}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRuns copies a batch of (SrcOff, DstOff, Len) runs into dst — the
// copying form of VisitRuns. The run list of a subarray comes straight
// from core.SubarrayPlan, offset by the array header size.
func (r *Reader) ReadRuns(dst []byte, runs []Run) error {
	if err := checkDst(dst, runs); err != nil {
		return err
	}
	return r.VisitRuns(runs, func(dstOff int, seg []byte) { copy(dst[dstOff:], seg) })
}

// checkDst checks that every run lands inside dst.
func checkDst(dst []byte, runs []Run) error {
	for _, r := range runs {
		if r.Len > 0 && (r.DstOff < 0 || r.DstOff+r.Len > len(dst)) {
			return fmt.Errorf("%w: destination range [%d,%d) of %d", ErrShortRead, r.DstOff, r.DstOff+r.Len, len(dst))
		}
	}
	return nil
}

// Run mirrors core.Run at the blob layer (byte ranges of the stored
// blob). Declared locally to keep the package dependency-free.
type Run struct {
	SrcOff int
	DstOff int
	Len    int
}

// NumChunks returns how many chunk pages a blob of n bytes occupies as
// raw blocks: one full BlockSize block per page, except that a tail
// block small enough to share the last full block's page packs onto
// it. A blob is stored under its codec only when that takes fewer.
func NumChunks(n int64) int {
	full, tail := n/BlockSize, n%BlockSize
	if tail > 0 && (full == 0 || blockHdrSize+tail > chunkPayloadCap-blockHdrSize-BlockSize) {
		full++
	}
	return int(full)
}
