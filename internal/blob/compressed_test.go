package blob

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sqlarray/internal/pages"
)

// storeWithPool mirrors newStore but also hands back the pool so tests
// can assert pin accounting.
func storeWithPool(t testing.TB) (*Store, *pages.BufferPool) {
	t.Helper()
	bp := pages.NewBufferPool(pages.NewMemDisk(), 1024)
	return NewStore(bp), bp
}

// chunkCodecs returns the codec each chunk page of ref records.
func chunkCodecs(t *testing.T, s *Store, ref Ref) []Codec {
	t.Helper()
	chunks, err := s.walkDir(ref, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Codec, len(chunks))
	for i, ci := range chunks {
		f, err := s.bp.Fetch(ci.id)
		if err != nil {
			t.Fatal(err)
		}
		out[i], err = chunkCodec(&f.Page)
		s.bp.Unpin(f, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkRawBlocks fails t unless ref is stored as raw blocks: on exactly
// NumChunks pages, each recording the zero Codec.
func checkRawBlocks(t *testing.T, s *Store, ref Ref, what string) {
	t.Helper()
	codecs := chunkCodecs(t, s, ref)
	if len(codecs) != NumChunks(ref.Length) {
		t.Errorf("%s: %d chunks, want %d", what, len(codecs), NumChunks(ref.Length))
	}
	for i, c := range codecs {
		if c != (Codec{}) {
			t.Errorf("%s: chunk %d records codec %+v, want the zero Codec", what, i, c)
		}
	}
}

var compressedCodecs = []Codec{
	{Kind: CodecXOR, Width: 8},
	{Kind: CodecLZ, Width: 8},
	{Kind: CodecLZ, Width: 1},
}

func TestWriteCompressedRoundTripSizes(t *testing.T) {
	sizes := []int{1, 100, BlockSize - 1, BlockSize, BlockSize + 1,
		chunkSize, chunkSize + 1, maxChunkLogical, maxChunkLogical + 1,
		3 * chunkSize, 3*chunkSize + 17, 64 * 1024, 512 * 1024}
	for _, c := range compressedCodecs {
		s := newStore(t)
		for _, n := range sizes {
			data := smoothFloats((n+7)/8, int64(n))[:n]
			ref, err := s.Write(data, c)
			if err != nil {
				t.Fatalf("%+v WriteCompressed %d: %v", c, n, err)
			}
			if ref.Length != int64(n) {
				t.Errorf("%+v %d: Length = %d", c, n, ref.Length)
			}
			got, err := s.ReadAll(ref)
			if err != nil {
				t.Fatalf("%+v ReadAll %d: %v", c, n, err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("%+v: roundtrip mismatch at %d bytes", c, n)
			}
		}
	}
}

func TestWriteCompressedEmpty(t *testing.T) {
	s := newStore(t)
	ref, err := s.Write(nil, Codec{Kind: CodecXOR, Width: 8})
	if err != nil || !ref.IsNull() {
		t.Fatalf("WriteCompressed(nil) = %v, %v, want null ref", ref, err)
	}
}

func TestWriteCompressedUnknownCodecFallsBackRaw(t *testing.T) {
	s := newStore(t)
	data := smoothFloats(4096, 1)
	for _, c := range []Codec{{}, {Kind: CodecKind(77), Width: 8}} {
		ref, err := s.Write(data, c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		checkRawBlocks(t, s, ref, fmt.Sprintf("%+v", c))
	}
}

// TestCompressedUsesFewerPages is the point of the feature: a
// compressible multi-chunk blob must occupy fewer chunk pages than the
// raw layout, and the stored-bytes counter must show the reduction.
func TestCompressedUsesFewerPages(t *testing.T) {
	s := newStore(t)
	data := seqInts(128*1024, 0) // 1 MiB, shuffles to near-constant planes
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := s.walkDir(ref, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := NumChunks(ref.Length)
	if len(chunks) >= raw/4 {
		t.Errorf("compressed blob uses %d chunk pages, raw would use %d — want < raw/4", len(chunks), raw)
	}
	if stored, logical := s.stats.storedBytesWritten.Load(), s.stats.bytesWritten.Load(); stored == 0 || stored >= logical/4 {
		t.Errorf("StoredBytesWritten = %d vs logical %d, want < 1/4", stored, logical)
	}
	got, err := s.ReadAll(ref)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("roundtrip after packed write failed: %v", err)
	}
	if stored, logical := s.stats.storedBytesRead.Load(), s.stats.bytesRead.Load(); stored == 0 || stored >= logical/4 {
		t.Errorf("StoredBytesRead = %d vs logical %d, want < 1/4", stored, logical)
	}
}

// TestIncompressibleFallsBackRaw: when compression would not save a
// page, Write must store raw blocks under the zero Codec, so the page
// count never exceeds NumChunks and a later patch keeps them raw.
func TestIncompressibleFallsBackRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := newStore(t)
	data := randBytes(rng, 64*1024)
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkRawBlocks(t, s, ref, "incompressible")
	got, err := s.ReadAll(ref)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("roundtrip failed: %v", err)
	}
	// A compressible patch re-encodes under the recorded zero Codec.
	patch := make([]byte, 3*BlockSize)
	if err := s.WriteRuns(ref, patch, []Run{{SrcOff: 100, Len: len(patch)}}); err != nil {
		t.Fatal(err)
	}
	checkRawBlocks(t, s, ref, "after a zero patch")
	copy(data[100:], patch)
	if got, err := s.ReadAll(ref); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("roundtrip after patch failed: %v", err)
	}
}

// TestCompressedReadEquivalence writes the same payload raw and
// compressed and drives every read path over both, asserting identical
// results and clean pin accounting.
func TestCompressedReadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s, bp := storeWithPool(t)
	data := smoothFloats(40000, 2) // ~312 KiB, multi-chunk either way
	rawRef, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	compRef, err := s.Write(data, Codec{Kind: CodecXOR, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]Ref{"raw": rawRef, "compressed": compRef}

	// ReadAt at random offsets, including chunk- and block-straddling.
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(20000)
		off := rng.Intn(len(data) - n)
		want := data[off : off+n]
		for name, ref := range refs {
			dst := make([]byte, n)
			if err := readAt(s, ref, dst, int64(off)); err != nil {
				t.Fatalf("%s ReadAt(%d,%d): %v", name, off, n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s ReadAt(%d,%d) mismatch", name, off, n)
			}
		}
	}

	// ReadRuns over random scattered runs.
	for i := 0; i < 20; i++ {
		nRuns := 1 + rng.Intn(6)
		runs := make([]Run, 0, nRuns)
		want := make([]byte, 0, nRuns*512)
		dstOff := 0
		srcOff := rng.Intn(1024)
		for j := 0; j < nRuns && srcOff < len(data)-8; j++ {
			l := 8 * (1 + rng.Intn(64))
			if srcOff+l > len(data) {
				l = len(data) - srcOff
			}
			runs = append(runs, Run{SrcOff: srcOff, DstOff: dstOff, Len: l})
			want = append(want, data[srcOff:srcOff+l]...)
			dstOff += l
			srcOff += l + rng.Intn(2*chunkSize)
		}
		for name, ref := range refs {
			dst := make([]byte, dstOff)
			if err := readRuns(s, ref, dst, runs); err != nil {
				t.Fatalf("%s ReadRuns: %v", name, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s ReadRuns mismatch (iter %d)", name, i)
			}
		}
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames = %d after the reads, want 0", got)
	}
}

// TestCompressedWriteRunsInPlace patches a compressed blob with
// similarly compressible bytes: the re-encoded chunks still fit and the
// blob must read back byte-identical to the patched reference.
func TestCompressedWriteRunsInPlace(t *testing.T) {
	s := newStore(t)
	data := smoothFloats(40000, 4)
	ref, err := s.Write(data, Codec{Kind: CodecXOR, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	patch := smoothFloats(4096, 99)
	runs := []Run{
		{SrcOff: 0, DstOff: 0, Len: 512},
		{SrcOff: 100000, DstOff: 512, Len: 16384}, // straddles chunks
		{SrcOff: len(data) - 64, DstOff: 17000, Len: 64},
	}
	for _, r := range runs {
		copy(want[r.SrcOff:r.SrcOff+r.Len], patch[r.DstOff:r.DstOff+r.Len])
	}
	if err := s.WriteRuns(ref, patch, runs); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("in-place compressed patch: content mismatch")
	}
}

// TestCompressedWriteRunsSplit patches a tightly packed compressed blob
// with incompressible bytes, forcing re-encoded chunks past their page
// capacity: the store must split chunks, rewrite the directory in
// place, and keep the Ref stable.
func TestCompressedWriteRunsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, bp := storeWithPool(t)
	data := make([]byte, 512*1024) // zeros pack many blocks per chunk
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.walkDir(ref, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	// Overwrite a large middle region and the tail with random bytes.
	patch := randBytes(rng, 200*1024)
	runs := []Run{
		{SrcOff: 100000, DstOff: 0, Len: 150 * 1024},
		{SrcOff: len(data) - 30000, DstOff: 150 * 1024, Len: 30000},
	}
	for _, r := range runs {
		copy(want[r.SrcOff:r.SrcOff+r.Len], patch[r.DstOff:r.DstOff+r.Len])
	}
	if err := s.WriteRuns(ref, patch, runs); err != nil {
		t.Fatal(err)
	}
	after, err := s.walkDir(ref, nil, nil)
	if err != nil {
		t.Fatalf("walkDir after split (same ref): %v", err)
	}
	for i, c := range chunkCodecs(t, s, ref) {
		if c != (Codec{Kind: CodecLZ, Width: 8}) {
			t.Fatalf("chunk %d records codec %+v after the split, want the writer's", i, c)
		}
	}
	if len(after) <= len(before) {
		t.Errorf("chunk count %d -> %d, expected a split to add pages", len(before), len(after))
	}
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("split compressed patch: content mismatch")
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames = %d after WriteRuns, want 0", got)
	}
}

// TestCompressedWriteRunsRandomized cross-checks WriteRuns against a
// plain byte-slice reference over many random patches, mixing
// compressible and incompressible payloads so both the in-place and
// split paths run.
func TestCompressedWriteRunsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, c := range compressedCodecs {
		s := newStore(t)
		want := smoothFloats(32768, 5) // 256 KiB
		ref, err := s.Write(want, c)
		if err != nil {
			t.Fatal(err)
		}
		want = append([]byte(nil), want...)
		for iter := 0; iter < 40; iter++ {
			var patch []byte
			if iter%3 == 0 {
				patch = randBytes(rng, 32*1024) // force splits
			} else {
				patch = smoothFloats(4096, int64(iter))
			}
			nRuns := 1 + rng.Intn(4)
			runs := make([]Run, 0, nRuns)
			dstOff := 0
			for j := 0; j < nRuns; j++ {
				l := 1 + rng.Intn(len(patch)/nRuns-1)
				if dstOff+l > len(patch) {
					break
				}
				srcOff := rng.Intn(len(want) - l)
				runs = append(runs, Run{SrcOff: srcOff, DstOff: dstOff, Len: l})
				copy(want[srcOff:srcOff+l], patch[dstOff:dstOff+l])
				dstOff += l
			}
			if len(runs) == 0 {
				continue
			}
			if err := s.WriteRuns(ref, patch, runs); err != nil {
				t.Fatalf("%+v iter %d: WriteRuns: %v", c, iter, err)
			}
			got, err := s.ReadAll(ref)
			if err != nil {
				t.Fatalf("%+v iter %d: ReadAll: %v", c, iter, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v iter %d: content diverged from reference", c, iter)
			}
		}
	}
}

// TestCompressedFreeReclaims: Free must push every page of a compressed
// blob (chunks and directory, including post-split layouts) onto the
// free list, and a following write must reuse them.
func TestCompressedFreeReclaims(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := newStore(t)
	data := make([]byte, 256*1024)
	ref, err := s.Write(data, Codec{Kind: CodecLZ, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Split some chunks first so Free sees the rewritten directory.
	if err := s.WriteRuns(ref, randBytes(rng, 64*1024), []Run{{SrcOff: 50000, DstOff: 0, Len: 64 * 1024}}); err != nil {
		t.Fatal(err)
	}
	var dirIDs []pages.PageID
	chunks, err := s.walkDir(ref, nil, &dirIDs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(ref); err != nil {
		t.Fatal(err)
	}
	free, err := s.FreeListLen()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(chunks) + len(dirIDs); free != want {
		t.Errorf("FreeListLen = %d, want %d (chunks %d + dirs %d)", free, want, len(chunks), len(dirIDs))
	}
	grew := s.bp.Disk().NumPages()
	if _, err := s.Write(data[:64*1024], Codec{Kind: CodecLZ, Width: 8}); err != nil {
		t.Fatal(err)
	}
	if now := s.bp.Disk().NumPages(); now != grew {
		t.Errorf("disk grew %d -> %d pages; freed pages not reused", grew, now)
	}
}
