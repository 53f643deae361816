package pages

import "testing"

// makePages materializes n marker pages on disk through the pool and
// returns their ids, leaving the cache in whatever state the churn put
// it in (callers DropCleanBuffers for a cold start).
func makePages(t testing.TB, bp *BufferPool, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		f, err := bp.NewPage(TypeData)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.Page.ID
		bp.Unpin(f, true)
	}
	return ids
}

func fetchUnpin(t testing.TB, bp *BufferPool, id PageID) {
	t.Helper()
	f, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, false)
}

// TestScanResistantEviction drives the SLRU's headline property: a hot,
// re-referenced working set survives a one-touch scan that is several
// times larger than the pool.
func TestScanResistantEviction(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	hot := makePages(t, bp, 4)
	scan := makePages(t, bp, 64)
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	c := &bp.stats
	promotions, scanEvictions, admissions := c.promotions.Load(), c.scanEvictions.Load(), c.admissions.Load()
	// Touch the hot set twice: the second touch is the re-reference that
	// promotes into the protected segment.
	for i := 0; i < 2; i++ {
		for _, id := range hot {
			fetchUnpin(t, bp, id)
		}
	}
	// One-touch scan of 4x the pool capacity.
	for _, id := range scan {
		fetchUnpin(t, bp, id)
	}
	// Re-fetch the hot set and count the misses it takes.
	before := c.physicalReads.Load()
	for _, id := range hot {
		fetchUnpin(t, bp, id)
	}
	if misses := c.physicalReads.Load() - before; misses != 0 {
		t.Errorf("hot set took %d misses after scan, want 0", misses)
	}
	if got := c.promotions.Load() - promotions; got < uint64(len(hot)) {
		t.Errorf("Promotions = %d, want >= %d", got, len(hot))
	}
	if c.scanEvictions.Load() == scanEvictions {
		t.Error("ScanEvictions did not move (scan should churn probation)")
	}
	if c.admissions.Load() == admissions {
		t.Error("Admissions did not move")
	}
}

// TestProtectedSegmentCapDemotes checks the protected segment cannot
// monopolize a stripe: promoting more frames than protCap (3/4 of the
// stripe) demotes the coldest back to probation instead of growing the
// protected list without bound.
func TestProtectedSegmentCapDemotes(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 8) // protCap = 6
	ids := makePages(t, bp, 8)
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	// Promote all 8: each gets two touches.
	for i := 0; i < 2; i++ {
		for _, id := range ids {
			fetchUnpin(t, bp, id)
		}
	}
	s := bp.shards[0]
	s.mu.Lock()
	prob, prot := s.lru[tierProbation].n, s.lru[tierProtected].n
	s.mu.Unlock()
	if prot > s.protCap {
		t.Errorf("protected segment holds %d frames, cap %d", prot, s.protCap)
	}
	if prob+prot != 8 {
		t.Errorf("prob+prot = %d+%d, want 8 unpinned frames total", prob, prot)
	}
}
