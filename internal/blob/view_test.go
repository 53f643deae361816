package blob

import (
	"bytes"
	"math/rand"
	"testing"

	"sqlarray/internal/pages"
)

func viewTestStore(t *testing.T, blobBytes int) (*Store, Ref, []byte, *pages.BufferPool) {
	t.Helper()
	bp := pages.NewBufferPool(pages.NewMemDisk(), 1<<12)
	s := NewStore(bp)
	data := make([]byte, blobBytes)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	ref, err := s.Write(data, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return s, ref, data, bp
}

// TestViewPinsOnlySingleChunkBlobs: a single raw chunk is lent zero-copy
// and pinned until Release; anything larger yields ok=false and holds
// nothing.
func TestViewPinsOnlySingleChunkBlobs(t *testing.T) {
	for _, n := range []int{1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17} {
		s, ref, data, bp := viewTestStore(t, n)
		v, err := s.View(ref)
		if err != nil {
			t.Fatalf("View(%d): %v", n, err)
		}
		single := NumChunks(int64(n)) == 1
		c, ok := v.Contiguous()
		if ok != single {
			t.Errorf("Contiguous ok = %v for %d bytes", ok, n)
		} else if ok && !bytes.Equal(c, data) {
			t.Errorf("Contiguous bytes mismatch")
		}
		wantPins := 0
		if single {
			wantPins = 1
		}
		if got := bp.PinnedFrames(); got != wantPins {
			t.Errorf("PinnedFrames while viewed = %d, want %d", got, wantPins)
		}
		v.Release()
		v.Release() // idempotent
		if got := bp.PinnedFrames(); got != 0 {
			t.Errorf("PinnedFrames after Release = %d", got)
		}
	}
}

// TestViewReleaseReturnsFrameToLRU is the pin-lifecycle regression test:
// while a view is live its frame must be unevictable (DropCleanBuffers
// fails), and after Release the frame must be back on the LRU so the
// pool can quiesce and evict it.
func TestViewReleaseReturnsFrameToLRU(t *testing.T) {
	s, ref, _, bp := viewTestStore(t, ChunkSize)
	v, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCleanBuffers(); err == nil {
		t.Fatal("DropCleanBuffers must fail while a view pins a chunk page")
	}
	v.Release()
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatalf("DropCleanBuffers after Release: %v", err)
	}
	if got := bp.CachedPages(); got != 0 {
		t.Errorf("CachedPages after drop = %d (released frames not evictable)", got)
	}
	// The blob must still be readable cold.
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatalf("cold ReadAll after drop: %v", err)
	}
}

func TestViewNull(t *testing.T) {
	s := NewStore(pages.NewBufferPool(pages.NewMemDisk(), 64))
	v, err := s.View(Ref{})
	if err != nil {
		t.Fatalf("View(null): %v", err)
	}
	if _, ok := v.Contiguous(); ok {
		t.Error("null view reports a contiguous payload")
	}
	v.Release()
}

// TestViewOfCompressedBlobHoldsNothing: a compressed chunk's page bytes
// are the packed codec stream, not the payload, so there is nothing to
// lend — the view reports ok=false and pins no frame.
func TestViewOfCompressedBlobHoldsNothing(t *testing.T) {
	s, bp := storeWithPool(t)
	ref, err := s.Write(smoothFloats(8192, 3), Codec{Kind: CodecXOR, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, compressed, err := s.walkDir(ref); err != nil || !compressed {
		t.Fatalf("smooth floats stored raw (err %v)", err)
	}
	v, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if _, ok := v.Contiguous(); ok {
		t.Error("compressed view reports a contiguous payload")
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("compressed view holds %d pins, want 0", got)
	}
}
