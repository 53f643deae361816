package blob

import (
	"bytes"
	"testing"

	"sqlarray/internal/pages"
)

// TestFreeReusesPages is the leak regression: overwriting or deleting a
// blob must return its chunk AND directory pages to the free list, so a
// delete+rewrite cycle leaves the database file at its baseline size
// instead of growing by the blob's footprint each round.
func TestFreeReusesPages(t *testing.T) {
	disk := pages.NewMemDisk()
	bp := pages.NewBufferPool(disk, 256)
	s := NewStore(bp)

	data := make([]byte, 4*BlockSize+100) // 5 chunks + 1 directory page
	for i := range data {
		data[i] = byte(i)
	}
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := disk.NumPages()

	for round := 0; round < 5; round++ {
		if err := s.Free(ref); err != nil {
			t.Fatal(err)
		}
		n, err := s.FreeListLen()
		if err != nil {
			t.Fatal(err)
		}
		if want := NumChunks(int64(len(data))) + 1; n != want {
			t.Fatalf("round %d: free list holds %d pages, want %d (chunks + directory)", round, n, want)
		}
		ref, err = s.Write(data, Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if got := disk.NumPages(); got != baseline {
			t.Fatalf("round %d: file grew from %d to %d pages — blob rewrite leaked", round, baseline, got)
		}
	}
	// Data still reads back correctly through recycled pages.
	got, err := s.ReadAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch after page recycling")
	}
	if freed, reused := s.stats.pagesFreed.Load(), s.stats.pagesReused.Load(); freed == 0 || reused == 0 {
		t.Fatalf("counters did not record reclamation: %d pages freed, %d reused", freed, reused)
	}
	if bp.PinnedFrames() != 0 {
		t.Fatalf("%d frames left pinned", bp.PinnedFrames())
	}
}

// TestFreeNullAndReadAfterFree: freeing the null ref is a no-op, and a
// dangling ref is detected (the pages were retyped), not silently read.
func TestFreeNullAndReadAfterFree(t *testing.T) {
	bp := pages.NewBufferPool(pages.NewMemDisk(), 64)
	s := NewStore(bp)
	if err := s.Free(Ref{}); err != nil {
		t.Fatalf("freeing null ref: %v", err)
	}
	ref, err := s.Write(make([]byte, 3*chunkSize), Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(ref); err == nil {
		t.Fatal("reading a freed blob succeeded")
	}
}

// TestWriteRunsTouchesOnlyAffectedChunks: an in-place run write on a
// multi-chunk blob dirties only the chunks the runs land on, strictly
// fewer than a whole-blob rewrite would.
func TestWriteRunsTouchesOnlyAffectedChunks(t *testing.T) {
	bp := pages.NewBufferPool(pages.NewMemDisk(), 256)
	s := NewStore(bp)
	const nChunks = 16
	data := make([]byte, nChunks*BlockSize)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.stats.chunksWritten.Load()

	// Patch 100 bytes in chunk 3 and 100 straddling chunks 7/8.
	patch := make([]byte, 200)
	for i := range patch {
		patch[i] = 0xEE
	}
	runs := []Run{
		{SrcOff: 3*BlockSize + 50, DstOff: 0, Len: 100},
		{SrcOff: 8*BlockSize - 50, DstOff: 100, Len: 100},
	}
	if err := s.WriteRuns(ref, patch, runs); err != nil {
		t.Fatal(err)
	}
	touched := s.stats.chunksWritten.Load() - before
	if touched >= nChunks {
		t.Fatalf("run write touched %d chunks, not fewer than the %d a full rewrite costs", touched, nChunks)
	}
	if touched != 3 { // chunk 3, chunk 7, chunk 8
		t.Fatalf("run write touched %d chunks, want 3", touched)
	}
	// Verify the patched bytes and one untouched neighbour.
	got := make([]byte, 100)
	if err := readAt(s, ref, got, int64(3*BlockSize+50)); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xEE || got[99] != 0xEE {
		t.Fatal("patch did not land")
	}
	if err := readAt(s, ref, got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("untouched chunk changed")
	}
	if bp.PinnedFrames() != 0 {
		t.Fatalf("%d frames left pinned", bp.PinnedFrames())
	}
}
