// The one read that keeps a pin past its call.
//
// Every other read goes through VisitRuns, whose segments die with the
// callback. A consumer that wants an array payload as one contiguous
// slice for longer than that — the executor resolving a MAX column into
// a batch — would have to copy it out. When the blob is a single raw
// chunk its payload already is one slice of a page body, so View pins
// that page and lends the slice until Release. Multi-chunk blobs are
// not contiguous in the pool and compressed chunks are not the payload
// at all; for those the view holds nothing and the caller copies
// (ReadAll).
//
// A View must be Released exactly like a Frame must be Unpinned: a
// leaked view blocks eviction and DropCleanBuffers — the golden suites
// assert PinnedFrames() == 0 after every query for this reason.
package blob

import "sqlarray/internal/pages"

// View is a blob pinned in the buffer pool for zero-copy access.
type View struct {
	s *Store
	f *pages.Frame // nil when the blob is not a single raw chunk
}

// View pins the blob's chunk page if the blob is a single raw chunk.
// The caller must Release the view either way.
func (s *Store) View(ref Ref) (*View, error) {
	v := &View{s: s}
	chunks, _, compressed, err := s.walkDir(ref)
	if err != nil {
		return nil, err
	}
	// The compressed test is a format guard, not a case the engine
	// reaches: its one caller asks only for blobs of at most ChunkSize
	// bytes, which are always stored raw. A larger blob packed into one
	// compressed page also has len(chunks) == 1, and its page body is a
	// codec stream that must never be lent as the payload.
	if compressed || len(chunks) != 1 {
		return v, nil
	}
	if v.f, err = s.fetchChunk(chunks[0], false); err != nil {
		return nil, err
	}
	s.stats.bytesRead.Add(uint64(v.f.Page.Used()))
	return v, nil
}

// Contiguous returns the whole payload as one slice aliasing the pinned
// page body, valid until Release. ok is false when the blob is not a
// single raw chunk; nothing is pinned then.
func (v *View) Contiguous() ([]byte, bool) {
	if v.f == nil {
		return nil, false
	}
	return v.f.Page.Body()[:v.f.Page.Used()], true
}

// Release unpins the chunk page, returning the frame to the LRU.
// Idempotent; slices from Contiguous must not be used afterward.
func (v *View) Release() {
	if v.f != nil {
		v.s.fx.Unpin(v.f, false)
		v.f = nil
	}
}
