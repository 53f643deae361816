// Package blob implements out-of-page binary large object storage for the
// sqlarray engine, mirroring SQL Server's VARBINARY(MAX) handling that the
// paper builds on (§3.3): blobs larger than a data page are stored outside
// the row as a tree of chunk pages, reached through a stream wrapper that
// "supports reading only parts of the binary data if the whole array is
// not required" — the property that makes subsetting max arrays cheap.
//
// Layout: a blob is a chain of directory pages (TypeBlobTree), each
// holding an array of chunk page ids; chunk pages (TypeBlobData) hold up
// to 8096 payload bytes each. The row stores only a fixed-size Ref.
//
// Two chunk formats coexist, discriminated by the page-header flag
// pages.FlagCompressedBlob on the blob's directory and chunk pages:
//
//   - Raw: chunk c holds logical bytes [c*ChunkSize, (c+1)*ChunkSize)
//     verbatim; directory entries are 4-byte chunk page ids.
//   - Compressed: the logical blob is cut into BlockSize blocks, each
//     compressed independently (see codec.go) and packed — several
//     blocks per chunk page — so compressible blobs occupy fewer pages;
//     directory entries are 8 bytes (page id plus the chunk's logical
//     length). A blob is stored compressed only when that saves a page.
//
// A Ref does not say how its bytes are stored, and callers never need
// to know. There is one way in and one way out:
//
//   - write (write.go) lays a blob out under a codec on pages from a
//     page sink — packed compressed blocks when that saves a page, raw
//     chunks otherwise. Write and WriteFresh are its two sinks;
//     WriteRuns (free.go) patches an existing blob in place.
//   - VisitRuns reads: given byte runs of the logical blob it walks the
//     directory once, fetches each touched chunk once through the
//     store's pages.Fetcher — the live pool, or a snapshot — and lends
//     the caller the bytes in place, decoding only the compressed
//     blocks the runs overlap. ReadAt, ReadAll and ReadRuns are
//     VisitRuns with a copying callback. Nothing a read pins or decodes
//     outlives the call: a caller that keeps bytes past its callback
//     copies them.
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

// ChunkSize is the payload capacity of one blob chunk page.
const ChunkSize = pages.PageSize - pages.HeaderSize

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

// Stats is a snapshot of blob-store I/O at the chunk granularity,
// allowing the benchmarks to show how partial reads touch fewer pages.
// BytesRead/BytesWritten count logical (uncompressed) bytes; the
// Compressed* counters count the stored bytes of compressed chunks, so
// BytesWritten / CompressedBytesWritten is the live compression ratio.
type Stats struct {
	DirectoryReads uint64
	ChunkReads     uint64
	BytesRead      uint64
	ChunksWritten  uint64
	BytesWritten   uint64
	PagesFreed     uint64 // pages returned to the free list by Free
	PagesReused    uint64 // allocations served from the free list
	// CompressedBytesWritten is the stored (post-compression) size of
	// chunk pages written by compressed Write/WriteFresh and WriteRuns.
	CompressedBytesWritten uint64
	// CompressedBytesRead is the stored size of every compressed chunk
	// page fetched by a read — the physical I/O volume a compressed
	// read actually paid, vs the logical BytesRead.
	CompressedBytesRead uint64
}

// counters is the live, atomic form of Stats. The store is read from
// parallel scan workers concurrently, so plain-field increments would be
// a data race (and were, before this was converted).
type counters struct {
	directoryReads         obs.Counter
	chunkReads             obs.Counter
	bytesRead              obs.Counter
	chunksWritten          obs.Counter
	bytesWritten           obs.Counter
	pagesFreed             obs.Counter
	pagesReused            obs.Counter
	compressedBytesWritten obs.Counter
	compressedBytesRead    obs.Counter
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
	reg.Attach("blob.compressed_bytes_written", &c.compressedBytesWritten)
	reg.Attach("blob.compressed_bytes_read", &c.compressedBytesRead)
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

// Stats returns a snapshot of the store counters. Lock-free.
func (s *Store) Stats() Stats {
	return Stats{
		DirectoryReads:         s.stats.directoryReads.Load(),
		ChunkReads:             s.stats.chunkReads.Load(),
		BytesRead:              s.stats.bytesRead.Load(),
		ChunksWritten:          s.stats.chunksWritten.Load(),
		BytesWritten:           s.stats.bytesWritten.Load(),
		PagesFreed:             s.stats.pagesFreed.Load(),
		PagesReused:            s.stats.pagesReused.Load(),
		CompressedBytesWritten: s.stats.compressedBytesWritten.Load(),
		CompressedBytesRead:    s.stats.compressedBytesRead.Load(),
	}
}

// scratchPool recycles codec staging buffers across read/write calls so
// decompressing reads do not allocate per call. The buffers never leak
// out of a call.
var scratchPool = sync.Pool{New: func() any { return newCodecScratch() }}

// chunkInfo locates one chunk page and the logical byte range it
// covers: [off, off+n). Raw blobs have the fixed ChunkSize geometry;
// compressed blobs have variable chunk coverage recorded in their
// directory entries.
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

// walkDir walks a blob's directory chain, returning the chunk list,
// the directory page ids, and whether the blob uses the compressed
// format (from the first directory page's flags).
func (s *Store) walkDir(ref Ref) (chunks []chunkInfo, dirIDs []pages.PageID, compressed bool, err error) {
	if ref.IsNull() {
		return nil, nil, false, nil
	}
	id := ref.Root
	first := true
	var off int64
	for id != pages.InvalidPageID {
		f, err := s.fx.Fetch(id)
		if err != nil {
			return nil, nil, false, err
		}
		if f.Page.Type() != pages.TypeBlobTree {
			s.fx.Unpin(f, false)
			return nil, nil, false, fmt.Errorf("%w: page %d is not a blob directory", ErrBadRef, id)
		}
		if first {
			compressed = f.Page.Flags()&pages.FlagCompressedBlob != 0
			first = false
		}
		s.stats.directoryReads.Add(1)
		used := f.Page.Used()
		body := f.Page.Body()
		if compressed {
			chunks = slices.Grow(chunks, used/8)
			for i := 0; i+8 <= used; i += 8 {
				n := int(binary.LittleEndian.Uint32(body[i+4:]))
				if n <= 0 || n > maxChunkLogical {
					s.fx.Unpin(f, false)
					return nil, nil, false, fmt.Errorf("%w: directory entry covers %d bytes", ErrBadRef, n)
				}
				chunks = append(chunks, chunkInfo{
					id:  pages.PageID(binary.LittleEndian.Uint32(body[i:])),
					off: off,
					n:   n,
				})
				off += int64(n)
			}
		} else {
			chunks = slices.Grow(chunks, used/4)
			for i := 0; i+4 <= used; i += 4 {
				n := ChunkSize
				if rem := ref.Length - off; int64(n) > rem {
					n = int(rem)
				}
				chunks = append(chunks, chunkInfo{
					id:  pages.PageID(binary.LittleEndian.Uint32(body[i:])),
					off: off,
					n:   n,
				})
				off += int64(n)
			}
		}
		dirIDs = append(dirIDs, id)
		next := f.Page.Next()
		s.fx.Unpin(f, false)
		id = next
	}
	if compressed && off != ref.Length {
		return nil, nil, false, fmt.Errorf("%w: directory covers %d bytes, ref declares %d",
			ErrBadRef, off, ref.Length)
	}
	return chunks, dirIDs, compressed, nil
}

// errStopVisit short-circuits a block walk once past the wanted range.
var errStopVisit = errors.New("blob: stop block visit")

// forEachBlock walks the packed block sequence of a compressed chunk
// page body, invoking fn with each block's chunk-relative logical
// offset, header fields and stored payload. Every bound is validated so
// a corrupt page yields an error, never a panic.
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

// chunkCodec reads the preferred codec recorded in a compressed chunk
// page header.
func chunkCodec(p *pages.Page) (Codec, error) {
	if p.Used() < chunkHdrSize {
		return Codec{}, errCorrupt("chunk header")
	}
	body := p.Body()
	return Codec{Kind: CodecKind(body[3]), Width: int(body[4]), Phase: int(body[5] & 7)}, nil
}

// decodeBlocks expands the blocks of a compressed chunk page that
// overlap the chunk-relative logical range [lo, hi) into dst, which
// must be exactly the chunk's logical size. Bytes of dst outside the
// decoded blocks are left untouched — callers must only read the
// requested range. A page whose blocks end before hi (clipped to dst)
// is an ErrShortRead: dst may be recycled scratch, so an undecoded tail
// must never reach the caller. This is the package's only block-decode
// loop: the read primitive passes the union range its runs need,
// WriteRuns the whole chunk.
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

// fetchChunk pins one chunk page for reading — the only place a
// TypeBlobData page is fetched through the store's Fetcher. The caller
// owns the pin.
func (s *Store) fetchChunk(ci chunkInfo, compressed bool) (*pages.Frame, error) {
	f, err := s.fx.Fetch(ci.id)
	if err != nil {
		return nil, err
	}
	if f.Page.Type() != pages.TypeBlobData {
		s.fx.Unpin(f, false)
		return nil, fmt.Errorf("%w: page %d is not a blob chunk", ErrBadRef, ci.id)
	}
	if f.Page.Used() > ChunkSize {
		s.fx.Unpin(f, false)
		return nil, fmt.Errorf("%w: chunk page %d claims %d used bytes", ErrBadRef, ci.id, f.Page.Used())
	}
	s.stats.chunkReads.Add(1)
	if compressed {
		s.stats.compressedBytesRead.Add(uint64(f.Page.Used()))
	}
	return f, nil
}

// piece is the part of one run that lives on one chunk: n bytes at
// chunk-relative offset lo of chunk c, bound for destination offset
// dstOff.
type piece struct {
	c, lo, n, dstOff int
}

// VisitRuns is the store's one read primitive: it calls fn with the
// bytes of every run, as segments of at most one chunk each. dstOff is
// the run's DstOff plus the segment's progress within the run, so a
// copying caller writes seg at dst[dstOff:]; segments arrive grouped by
// chunk, not in run order. Runs with Len <= 0 are skipped.
//
// One call walks the directory once and fetches every touched chunk
// exactly once, however many runs land on it. A raw chunk's segments
// alias the pinned page body; a compressed chunk decodes only the
// blocks overlapping the union of the ranges its runs need into pooled
// scratch. Either way seg is valid only until fn returns: no pin and no
// buffer outlives the call.
func (s *Store) VisitRuns(ref Ref, runs []Run, fn func(dstOff int, seg []byte)) error {
	total := 0
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		if end := int64(r.SrcOff) + int64(r.Len); r.SrcOff < 0 || end > ref.Length {
			if ref.IsNull() {
				return fmt.Errorf("%w: null blob", ErrBadRef)
			}
			return fmt.Errorf("%w: run [%d,%d) of %d", ErrShortRead, r.SrcOff, end, ref.Length)
		}
		total += r.Len
	}
	if total == 0 {
		return nil
	}
	chunks, _, compressed, err := s.walkDir(ref)
	if err != nil {
		return err
	}
	var cover int64
	if n := len(chunks); n > 0 {
		cover = chunks[n-1].off + int64(chunks[n-1].n)
	}
	// One piece per run plus one per chunk boundary a run crosses; no
	// chunk covers fewer than BlockSize bytes except a blob's last.
	pieces := make([]piece, 0, len(runs)+total/BlockSize+4)
	sorted := true
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		if int64(r.SrcOff+r.Len) > cover {
			return fmt.Errorf("%w: directory covers %d of %d bytes", ErrBadRef, cover, ref.Length)
		}
		read := 0
		for c := findChunk(chunks, int64(r.SrcOff)); read < r.Len; c++ {
			lo := int(int64(r.SrcOff+read) - chunks[c].off)
			n := min(chunks[c].n-lo, r.Len-read)
			if n <= 0 {
				return fmt.Errorf("%w: chunk %d of %d is empty", ErrBadRef, c, len(chunks))
			}
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
	var scr *codecScratch
	if compressed {
		scr = scratchPool.Get().(*codecScratch)
		defer scratchPool.Put(scr)
	}
	for i := 0; i < len(pieces); {
		j := i + 1
		for j < len(pieces) && pieces[j].c == pieces[i].c {
			j++
		}
		if err := s.visitChunk(chunks[pieces[i].c], compressed, pieces[i:j], scr, fn); err != nil {
			return err
		}
		i = j
	}
	s.stats.bytesRead.Add(uint64(total))
	return nil
}

// visitChunk fetches one chunk and emits the pieces that live on it.
func (s *Store) visitChunk(ci chunkInfo, compressed bool, ps []piece, scr *codecScratch, fn func(dstOff int, seg []byte)) error {
	f, err := s.fetchChunk(ci, compressed)
	if err != nil {
		return err
	}
	defer s.fx.Unpin(f, false)
	body := f.Page.Body()[:f.Page.Used()]
	if compressed {
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
		if p.lo+p.n > len(body) {
			return fmt.Errorf("%w: wanted [%d,%d) of chunk page %d, which holds %d bytes",
				ErrShortRead, p.lo, p.lo+p.n, ci.id, len(body))
		}
		fn(p.dstOff, body[p.lo:p.lo+p.n])
	}
	return nil
}

// ReadAt fills dst with blob bytes starting at offset off, touching only
// the chunk pages the range covers.
func (s *Store) ReadAt(ref Ref, dst []byte, off int64) error {
	return s.ReadRuns(ref, dst, []Run{{SrcOff: int(off), Len: len(dst)}})
}

// ReadAll fetches the entire blob.
func (s *Store) ReadAll(ref Ref) ([]byte, error) {
	if ref.IsNull() {
		return nil, nil
	}
	out := make([]byte, ref.Length)
	if err := s.ReadAt(ref, out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRuns copies a batch of (SrcOff, DstOff, Len) runs into dst — the
// copying form of VisitRuns. The run list of a subarray comes straight
// from core.SubarrayPlan, offset by the array header size.
func (s *Store) ReadRuns(ref Ref, dst []byte, runs []Run) error {
	for _, r := range runs {
		if r.Len > 0 && (r.DstOff < 0 || r.DstOff+r.Len > len(dst)) {
			return fmt.Errorf("%w: destination range [%d,%d) of %d", ErrShortRead, r.DstOff, r.DstOff+r.Len, len(dst))
		}
	}
	return s.VisitRuns(ref, runs, func(dstOff int, seg []byte) { copy(dst[dstOff:], seg) })
}

// Run mirrors core.Run at the blob layer (byte ranges of the stored
// blob). Declared locally to keep the package dependency-free.
type Run struct {
	SrcOff int
	DstOff int
	Len    int
}

// NumChunks returns how many chunk pages a blob of n bytes occupies in
// the raw format (compressed blobs occupy at most this many).
func NumChunks(n int64) int {
	return int((n + ChunkSize - 1) / ChunkSize)
}
