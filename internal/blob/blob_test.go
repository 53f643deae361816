package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"sqlarray/internal/pages"
)

// idsPerDir is how many directory entries fit one directory page.
const idsPerDir = chunkSize / dirEntrySize

func newStore(t *testing.T) *Store {
	t.Helper()
	return NewStore(pages.NewBufferPool(pages.NewMemDisk(), 1024))
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// randomBlobStore writes one blobBytes-long blob of seeded random
// (incompressible, so stored as raw blocks) bytes to a fresh store, returning the
// store, the blob's ref and bytes, and the pool underneath.
func randomBlobStore(t *testing.T, blobBytes int) (*Store, Ref, []byte, *pages.BufferPool) {
	t.Helper()
	bp := pages.NewBufferPool(pages.NewMemDisk(), 1<<12)
	s := NewStore(bp)
	data := randBytes(rand.New(rand.NewSource(7)), blobBytes)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return s, ref, data, bp
}

func TestWriteReadAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := newStore(t)
	for _, n := range []int{1, 100, chunkSize - 1, chunkSize, chunkSize + 1,
		3 * chunkSize, 3*chunkSize + 17, 64 * 1024} {
		data := randBytes(rng, n)
		ref, err := s.Write(data, Codec{})
		if err != nil {
			t.Fatalf("Write %d: %v", n, err)
		}
		if ref.Length != int64(n) {
			t.Errorf("Length = %d, want %d", ref.Length, n)
		}
		got, err := s.ReadAll(ref)
		if err != nil {
			t.Fatalf("ReadAll %d: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("roundtrip mismatch at %d bytes", n)
		}
	}
}

func TestEmptyBlob(t *testing.T) {
	s := newStore(t)
	ref, err := s.Write(nil, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.IsNull() {
		t.Error("empty write must produce null ref")
	}
	got, err := s.ReadAll(ref)
	if err != nil || got != nil {
		t.Errorf("ReadAll(null) = %v, %v", got, err)
	}
}

func TestRefEncodeDecode(t *testing.T) {
	r := Ref{Root: 42, Length: 1 << 40}
	var buf [RefSize]byte
	r.Encode(buf[:])
	back, err := DecodeRef(buf[:])
	if err != nil || back != r {
		t.Errorf("roundtrip = %+v, %v", back, err)
	}
	if _, err := DecodeRef(buf[:5]); !errors.Is(err, ErrBadRef) {
		t.Errorf("short decode: %v", err)
	}
}

func TestPartialReadTouchesFewChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newStore(t)
	data := randBytes(rng, 10*BlockSize)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	base := s.stats.chunkReads.Load()
	// Read 100 bytes from the middle of chunk 5.
	off := int64(5*BlockSize + 123)
	dst := make([]byte, 100)
	if err := readAt(s, ref, dst, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data[off:off+100]) {
		t.Error("partial read data mismatch")
	}
	if got := s.stats.chunkReads.Load() - base; got != 1 {
		t.Errorf("ChunkReads = %d, want 1 (partial read must not touch other chunks)", got)
	}
	// A read spanning a chunk boundary touches exactly 2.
	base = s.stats.chunkReads.Load()
	off = int64(3*BlockSize - 50)
	dst = make([]byte, 100)
	if err := readAt(s, ref, dst, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data[off:off+100]) {
		t.Error("boundary read mismatch")
	}
	if got := s.stats.chunkReads.Load() - base; got != 2 {
		t.Errorf("boundary ChunkReads = %d, want 2", got)
	}
}

func TestReadAtBounds(t *testing.T) {
	s := newStore(t)
	ref, err := s.Write(make([]byte, 100), Codec{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 10)
	if err := readAt(s, ref, dst, 95); !errors.Is(err, ErrShortRead) {
		t.Errorf("past-end read: %v", err)
	}
	if err := readAt(s, ref, dst, -1); !errors.Is(err, ErrShortRead) {
		t.Errorf("negative offset: %v", err)
	}
	if err := readAt(s, Ref{}, dst, 0); !errors.Is(err, ErrBadRef) {
		t.Errorf("null blob read: %v", err)
	}
	if err := readAt(s, ref, nil, 0); err != nil {
		t.Errorf("zero-length read: %v", err)
	}
}

func TestReadRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newStore(t)
	data := randBytes(rng, 4*chunkSize)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	runs := []Run{
		{SrcOff: 10, DstOff: 0, Len: 64},
		{SrcOff: chunkSize + 5, DstOff: 64, Len: 128},
		{SrcOff: 3*chunkSize - 8, DstOff: 192, Len: 16}, // spans boundary
	}
	dst := make([]byte, 208)
	if err := readRuns(s, ref, dst, runs); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !bytes.Equal(dst[r.DstOff:r.DstOff+r.Len], data[r.SrcOff:r.SrcOff+r.Len]) {
			t.Errorf("run %+v mismatch", r)
		}
	}
	if err := readRuns(s, ref, dst, []Run{{SrcOff: 4*chunkSize - 1, DstOff: 0, Len: 10}}); !errors.Is(err, ErrShortRead) {
		t.Errorf("overflowing run: %v", err)
	}
	if err := readRuns(s, ref, dst, []Run{{SrcOff: 0, DstOff: 200, Len: 10}}); !errors.Is(err, ErrShortRead) {
		t.Errorf("run past the end of dst: %v", err)
	}
	if err := readRuns(s, ref, nil, nil); err != nil {
		t.Errorf("empty runs: %v", err)
	}
	if err := readRuns(s, Ref{}, nil, nil); err != nil {
		t.Errorf("null blob, empty runs: %v", err)
	}
	if err := readRuns(s, Ref{}, dst, []Run{{Len: 1}}); !errors.Is(err, ErrBadRef) {
		t.Errorf("null blob, one run: %v", err)
	}
}

// TestVisitRunsFetchesEachChunkOnce drives the read primitive with a
// run list that revisits a chunk out of order and straddles a chunk
// boundary: every touched chunk is fetched exactly once, a straddling
// run arrives as one segment per chunk, the bytes are the blob's, and
// no pin survives the call — including a call that fails validation.
func TestVisitRunsFetchesEachChunkOnce(t *testing.T) {
	s, ref, data, bp := randomBlobStore(t, 4*BlockSize)
	runs := []Run{
		{SrcOff: 10, DstOff: 0, Len: 100},
		{SrcOff: BlockSize - 8, DstOff: 100, Len: 16}, // straddles chunks 0/1
		{SrcOff: 3 * BlockSize, DstOff: 116, Len: 64},
		{SrcOff: 20, DstOff: 180, Len: 8}, // back on chunk 0
	}
	c := s.stats
	chunkReads, dirReads, bytesRead := c.chunkReads.Load(), c.directoryReads.Load(), c.bytesRead.Load()
	got := make([]byte, 188)
	segs := map[int]int{} // run DstOff -> segments seen
	err := visitRuns(s, ref, runs, func(dstOff int, seg []byte) {
		copy(got[dstOff:], seg)
		for _, r := range runs {
			if dstOff >= r.DstOff && dstOff < r.DstOff+r.Len {
				segs[r.DstOff]++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !bytes.Equal(got[r.DstOff:r.DstOff+r.Len], data[r.SrcOff:r.SrcOff+r.Len]) {
			t.Errorf("run %+v bytes do not match the source blob", r)
		}
	}
	if segs[100] != 2 || segs[0] != 1 || segs[116] != 1 || segs[180] != 1 {
		t.Errorf("segments per run = %v, want 2 for the straddling run and 1 for the rest", segs)
	}
	// Chunks 0, 1, 3 are touched; chunk 2 is not.
	chunkReads, dirReads, bytesRead = c.chunkReads.Load()-chunkReads, c.directoryReads.Load()-dirReads, c.bytesRead.Load()-bytesRead
	if chunkReads != 3 || dirReads != 1 || bytesRead != 188 {
		t.Errorf("%d chunk reads, %d directory reads, %d bytes, want 3, 1, 188", chunkReads, dirReads, bytesRead)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames after VisitRuns = %d", n)
	}
	err = visitRuns(s, ref, []Run{{SrcOff: 4*BlockSize - 4, Len: 8}}, func(int, []byte) {
		t.Error("callback invoked for an out-of-range run")
	})
	if !errors.Is(err, ErrShortRead) {
		t.Errorf("out-of-range run: %v", err)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames after failed VisitRuns = %d", n)
	}
}

// TestSubarrayReadTouchesFewerChunks is the acceptance check: a
// subarray-shaped run read over a multi-chunk blob must report strictly
// fewer ChunkReads than materializing the same blob via ReadAll.
func TestSubarrayReadTouchesFewerChunks(t *testing.T) {
	s, ref, _, _ := randomBlobStore(t, 16*BlockSize)
	base := s.stats.chunkReads.Load()
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatal(err)
	}
	whole := s.stats.chunkReads.Load() - base
	base = s.stats.chunkReads.Load()
	// A sliced read: three short runs spread over the blob.
	runs := []Run{
		{SrcOff: 0, DstOff: 0, Len: 64},
		{SrcOff: 7 * BlockSize, DstOff: 64, Len: 64},
		{SrcOff: 15 * BlockSize, DstOff: 128, Len: 64},
	}
	if err := readRuns(s, ref, make([]byte, 192), runs); err != nil {
		t.Fatal(err)
	}
	sliced := s.stats.chunkReads.Load() - base
	if sliced >= whole {
		t.Errorf("sliced read touched %d chunks, ReadAll touched %d — pushdown not effective", sliced, whole)
	}
	if sliced != 3 {
		t.Errorf("sliced read touched %d chunks, want exactly 3", sliced)
	}
}

// TestCompressedRunsDecodeOnlyTheUnionRange: several runs landing on one
// compressed chunk cost one fetch, and decodeBlocks expands only the
// blocks their union range overlaps.
func TestCompressedRunsDecodeOnlyTheUnionRange(t *testing.T) {
	s, bp := storeWithPool(t)
	data := seqInts(16*BlockSize/8, 0) // 16 highly compressible blocks: one chunk
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunks, _, err := s.walkDir(ref)
	if err != nil || len(chunks) != 1 {
		t.Fatalf("want one packed chunk, got %d (err %v)", len(chunks), err)
	}
	// Two runs inside blocks 3 and 5: the union range spans blocks 3..5.
	runs := []Run{
		{SrcOff: 5*BlockSize + 16, DstOff: 0, Len: 32},
		{SrcOff: 3*BlockSize + 8, DstOff: 32, Len: 32},
	}
	base := s.stats.chunkReads.Load()
	got := make([]byte, 64)
	if err := readRuns(s, ref, got, runs); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !bytes.Equal(got[r.DstOff:r.DstOff+r.Len], data[r.SrcOff:r.SrcOff+r.Len]) {
			t.Errorf("run %+v mismatch", r)
		}
	}
	if got := s.stats.chunkReads.Load() - base; got != 1 {
		t.Errorf("ChunkReads = %d, want 1 for two runs on one chunk", got)
	}
	f, err := bp.Fetch(chunks[0].id)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(f, false)
	dst := bytes.Repeat([]byte{0xEE}, len(data))
	lo, hi := 3*BlockSize+8, 5*BlockSize+48
	if err := decodeBlocks(&f.Page, dst, lo, hi, newCodecScratch()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[3*BlockSize:6*BlockSize], data[3*BlockSize:6*BlockSize]) {
		t.Error("blocks 3..5 not decoded")
	}
	untouched := bytes.Repeat([]byte{0xEE}, 3*BlockSize)
	if !bytes.Equal(dst[:3*BlockSize], untouched) || !bytes.Equal(dst[6*BlockSize:9*BlockSize], untouched) {
		t.Error("blocks outside the union range were decoded")
	}
}

// TestVisitRunsCorruptChunk: a mangled packed chunk page, a chunk page
// of the wrong type and a directory shorter than the ref all surface as
// ErrBadRef, and a chunk page holding fewer blocks than the directory
// claims as ErrShortRead — never a panic, never a leaked pin, never the
// pooled scratch's previous contents. A one-raw-block chunk whose
// header disagrees with its directory entry is not lent in place.
func TestVisitRunsCorruptChunk(t *testing.T) {
	s, bp := storeWithPool(t)
	data := seqInts(64*1024, 0)
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunks, _, err := s.walkDir(ref)
	if err != nil || len(chunks) >= NumChunks(ref.Length) {
		t.Fatalf("walkDir: %d chunks, want fewer than %d (err %v)", len(chunks), NumChunks(ref.Length), err)
	}
	mangle := func(fn func(p *pages.Page)) {
		t.Helper()
		f, err := bp.Fetch(chunks[0].id)
		if err != nil {
			t.Fatal(err)
		}
		fn(&f.Page)
		bp.Unpin(f, true)
	}
	read := func() error { return readAt(s, ref, make([]byte, 64), 100) }

	longer := ref
	longer.Length++
	if err := readAt(s, longer, make([]byte, 1), ref.Length); !errors.Is(err, ErrBadRef) {
		t.Errorf("ref longer than its directory: %v", err)
	}
	// Block count cut to 2 while the directory still claims the full
	// chunk: reads beyond block 1 must fail, not hand back whatever the
	// recycled decode scratch held (primed here with another blob's 0xAB).
	other, err := s.Write(bytes.Repeat([]byte{0xAB}, 64*1024), Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(other); err != nil {
		t.Fatal(err)
	}
	var nBlocks uint16
	mangle(func(p *pages.Page) {
		nBlocks = binary.LittleEndian.Uint16(p.Body()[1:])
		binary.LittleEndian.PutUint16(p.Body()[1:], 2)
	})
	if nBlocks <= 6 {
		t.Fatalf("chunk 0 holds %d blocks, want > 6", nBlocks)
	}
	stale := make([]byte, 64)
	if err := readAt(s, ref, stale, 5*BlockSize); !errors.Is(err, ErrShortRead) {
		t.Errorf("read past a cut block count: err %v, dst % x", err, stale[:8])
	}
	if _, err := s.ReadAll(ref); !errors.Is(err, ErrShortRead) {
		t.Errorf("ReadAll over a cut block count: %v", err)
	}
	if err := readAt(s, ref, stale, BlockSize); err != nil || !bytes.Equal(stale, data[BlockSize:BlockSize+64]) {
		t.Errorf("read inside the surviving blocks: %v", err)
	}
	mangle(func(p *pages.Page) { binary.LittleEndian.PutUint16(p.Body()[1:], nBlocks) })
	if err := read(); err != nil {
		t.Fatalf("restored block count: %v", err)
	}

	mangle(func(p *pages.Page) { p.Body()[chunkHdrSize+2] ^= 0xFF }) // first block's stored length
	if err := read(); !errors.Is(err, ErrBadRef) {
		t.Errorf("mangled block header: %v", err)
	}
	mangle(func(p *pages.Page) { p.Body()[0] = chunkFormatVersion + 1 })
	if err := read(); !errors.Is(err, ErrBadRef) {
		t.Errorf("unknown chunk format version: %v", err)
	}
	mangle(func(p *pages.Page) { p.Init(pages.TypeFree) })
	if err := read(); !errors.Is(err, ErrBadRef) {
		t.Errorf("retyped chunk page: %v", err)
	}

	// Raw blocks: chunk 0 holds one raw block of BlockSize bytes.
	raw := randBytes(rand.New(rand.NewSource(5)), 2*BlockSize)
	rawRef, err := s.Write(raw, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rawChunks, _, err := s.walkDir(rawRef)
	if err != nil {
		t.Fatal(err)
	}
	put16 := func(b []byte, v int) { binary.LittleEndian.PutUint16(b, uint16(v)) }
	const stored, logical = chunkHdrSize + 2, chunkHdrSize + 4 // block header fields
	for _, c := range []struct {
		name string
		fn   func(p *pages.Page)
		want error
	}{
		{"stored length short", func(p *pages.Page) { put16(p.Body()[stored:], BlockSize-1) }, ErrBadRef},
		{"stored length long", func(p *pages.Page) { put16(p.Body()[stored:], BlockSize+1) }, ErrBadRef},
		{"logical length short", func(p *pages.Page) { put16(p.Body()[logical:], BlockSize-1) }, ErrBadRef},
		{"block shorter than its entry", func(p *pages.Page) {
			put16(p.Body()[stored:], BlockSize-1)
			put16(p.Body()[logical:], BlockSize-1)
			p.SetUsed(p.Used() - 1)
		}, ErrShortRead},
	} {
		f, err := bp.Fetch(rawChunks[0].id)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [chunkHdrSize + blockHdrSize]byte
		copy(hdr[:], f.Page.Body())
		used := f.Page.Used()
		c.fn(&f.Page)
		err = visitRuns(s, rawRef, []Run{{SrcOff: BlockSize - 64, Len: 64}}, func(int, []byte) {
			t.Errorf("%s: segment lent from a mismatched chunk", c.name)
		})
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
		copy(f.Page.Body(), hdr[:])
		f.Page.SetUsed(used)
		bp.Unpin(f, true)
	}
	if got, err := s.ReadAll(rawRef); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("restored raw chunk: %v", err)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames after failed reads = %d", n)
	}
}

// TestVisitRunsLendsRawBlocksInPlace: every segment of a blob stored as
// raw blocks aliases the chunk page's buffer — no decode, no copy —
// including the tail chunk and a run straddling two chunks.
func TestVisitRunsLendsRawBlocksInPlace(t *testing.T) {
	s, ref, data, bp := randomBlobStore(t, 4*BlockSize+100)
	chunks, _, err := s.walkDir(ref)
	if err != nil || len(chunks) != 5 {
		t.Fatalf("walkDir: %d chunks, want 5 (err %v)", len(chunks), err)
	}
	frames := make([]*pages.Frame, 0, len(chunks))
	for _, ci := range chunks {
		f, err := bp.Fetch(ci.id)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// DstOff == SrcOff, so a segment's dstOff is its blob offset.
	runs := []Run{
		{SrcOff: 10, DstOff: 10, Len: 100},
		{SrcOff: BlockSize - 8, DstOff: BlockSize - 8, Len: 16},
		{SrcOff: 3 * BlockSize, DstOff: 3 * BlockSize, Len: 64},
		{SrcOff: 4*BlockSize + 50, DstOff: 4*BlockSize + 50, Len: 50},
	}
	segs := 0
	err = visitRuns(s, ref, runs, func(off int, seg []byte) {
		segs++
		in := frames[off/BlockSize].Page.Body()[chunkHdrSize+blockHdrSize+off%BlockSize:]
		if &seg[0] != &in[0] {
			t.Errorf("segment at %d does not alias its chunk page", off)
		}
		if !bytes.Equal(seg, data[off:off+len(seg)]) {
			t.Errorf("segment at %d: wrong bytes", off)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs != 5 {
		t.Errorf("%d segments, want 5", segs)
	}
	for _, f := range frames {
		bp.Unpin(f, false)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames = %d", n)
	}
}

func TestHugeBlobMultipleDirectoryPages(t *testing.T) {
	// More chunks than fit one directory page (idsPerDir = 1012): a blob
	// of idsPerDir+76 raw-block chunks, about 8.8 MB.
	rng := rand.New(rand.NewSource(4))
	s := NewStore(pages.NewBufferPool(pages.NewMemDisk(), 4096))
	n := (idsPerDir + 76) * BlockSize
	data := randBytes(rng, n)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	// Verify a few scattered offsets rather than the whole blob.
	for _, off := range []int64{0, int64(idsPerDir)*BlockSize - 1, int64(idsPerDir) * BlockSize, int64(n) - 1} {
		dst := make([]byte, 1)
		if err := readAt(s, ref, dst, off); err != nil {
			t.Fatalf("ReadAt %d: %v", off, err)
		}
		if dst[0] != data[off] {
			t.Errorf("byte %d = %#x, want %#x", off, dst[0], data[off])
		}
	}
	base := s.stats.directoryReads.Load()
	dst := make([]byte, 1)
	if err := readAt(s, ref, dst, int64(n)-1); err != nil {
		t.Fatal(err)
	}
	if got := s.stats.directoryReads.Load() - base; got != 2 {
		t.Errorf("DirectoryReads = %d, want 2 (chained directory)", got)
	}
}

// TestNumChunks: NumChunks is the chunk page count raw blocks really
// take, on both sides of the one-full-block-per-page boundary and of
// the small tail that packs onto the last full block's page.
func TestNumChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := newStore(t)
	cases := []struct {
		n    int64
		want int
	}{
		{0, 0}, {1, 1}, {8, 1},
		{BlockSize, 1}, {BlockSize + 1, 1}, {BlockSize + 8, 1}, {BlockSize + 9, 2},
		{2*BlockSize + 8, 2}, {2*BlockSize + 9, 3}, {10 * BlockSize, 10},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.want {
			t.Errorf("NumChunks(%d) = %d, want %d", c.n, got, c.want)
		}
		// Incompressible bytes under either codec land on raw blocks.
		for _, codec := range []Codec{{}, {Kind: CodecLZ, Width: 8}} {
			before := s.stats.chunksWritten.Load()
			if _, err := s.Write(randBytes(rng, int(c.n)), codec); err != nil {
				t.Fatal(err)
			}
			if got := int(s.stats.chunksWritten.Load() - before); got != c.want {
				t.Errorf("%+v: %d bytes written on %d chunk pages, want %d", codec, c.n, got, c.want)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := newStore(t)
	data := randBytes(rng, 3*BlockSize)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.stats
	if n, b := c.chunksWritten.Load(), c.bytesWritten.Load(); n != 3 || b != uint64(len(data)) {
		t.Errorf("write: %d chunks, %d bytes, want 3, %d", n, b, len(data))
	}
	chunkReads, bytesRead, dirReads := c.chunkReads.Load(), c.bytesRead.Load(), c.directoryReads.Load()
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatal(err)
	}
	chunkReads, bytesRead, dirReads = c.chunkReads.Load()-chunkReads, c.bytesRead.Load()-bytesRead, c.directoryReads.Load()-dirReads
	if chunkReads != 3 || bytesRead != uint64(len(data)) || dirReads != 1 {
		t.Errorf("read: %d chunks, %d bytes, %d directory pages, want 3, %d, 1", chunkReads, bytesRead, dirReads, len(data))
	}
}

// TestStoredBytesCountEveryChunk: the stored-bytes counters count the
// chunk pages of a blob stored as raw blocks too, so their ratio to the
// logical counters is the compression actually achieved — here none.
func TestStoredBytesCountEveryChunk(t *testing.T) {
	s := newStore(t)
	data := randBytes(rand.New(rand.NewSource(9)), 80*1024)
	ref, err := s.Write(data, Codec{Kind: CodecXOR, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	stored, logical := s.stats.storedBytesWritten.Load(), s.stats.bytesWritten.Load()
	if stored < logical {
		t.Errorf("StoredBytesWritten = %d below the %d logical bytes of an incompressible blob",
			stored, logical)
	}
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatal(err)
	}
	// A whole read fetches every chunk page once: exactly what was written.
	if got := s.stats.storedBytesRead.Load(); got == 0 || got != stored {
		t.Errorf("StoredBytesRead = %d after a whole read, want %d", got, stored)
	}
}

// readAt fills dst with ref's bytes from offset off, through a Reader
// opened for the one read.
func readAt(s *Store, ref Ref, dst []byte, off int64) error {
	return readRuns(s, ref, dst, []Run{{SrcOff: int(off), Len: len(dst)}})
}

// readRuns is Reader.ReadRuns through a Reader opened for the one read.
func readRuns(s *Store, ref Ref, dst []byte, runs []Run) error {
	r, err := s.Open(ref)
	if err != nil {
		return err
	}
	return r.ReadRuns(dst, runs)
}

// visitRuns is Reader.VisitRuns through a Reader opened for the one read.
func visitRuns(s *Store, ref Ref, runs []Run, fn func(dstOff int, seg []byte)) error {
	r, err := s.Open(ref)
	if err != nil {
		return err
	}
	return r.VisitRuns(runs, fn)
}
