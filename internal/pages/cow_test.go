package pages

import "testing"

// TestFetchForWriteCopyIsPrivate: under a capture, FetchForWrite hands
// the session a frame of its own whose ID and 8192 bytes equal the
// pre-image; writes to it leave a held snapshot's read of the page
// unchanged byte for byte, and AbortCapture puts the original bytes
// back. Every byte carries a pattern, so a copy that skips or shifts
// any range shows.
func TestFetchForWriteCopyIsPrivate(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	id := makePages(t, bp, 1)[0]
	f, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Page.Buf {
		f.Page.Buf[i] = byte(i*7 + i>>8 + 3)
	}
	want := f.Page.Buf
	bp.Unpin(f, true)

	sn := bp.AcquireSnapshot()
	defer sn.Release()
	c, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	pend, err := bp.FetchForWrite(id)
	if err != nil {
		t.Fatal(err)
	}
	if pend == f || pend.pre != f {
		t.Fatalf("pending frame %p, pre-image %p: want a new frame displacing %p", pend, pend.pre, f)
	}
	if pend.Page.ID != id {
		t.Errorf("pending frame holds page %d, want %d", pend.Page.ID, id)
	}
	if pend.Page.Buf != want {
		t.Errorf("pending frame's bytes differ from the pre-image at offset %d", firstDiff(&pend.Page.Buf, &want))
	}
	for i := range pend.Page.Buf {
		pend.Page.Buf[i] ^= 0xFF
	}
	bp.Unpin(pend, true)

	g, err := sn.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if g.Page.ID != id || g.Page.Buf != want {
		t.Errorf("held snapshot reads page %d with a difference at offset %d after the session's writes",
			g.Page.ID, firstDiff(&g.Page.Buf, &want))
	}
	sn.Unpin(g, false)

	bp.EndCapture(c)
	bp.AbortCapture(c)
	h, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if h.Page.ID != id || h.Page.Buf != want {
		t.Errorf("after abort page %d differs from the original at offset %d", h.Page.ID, firstDiff(&h.Page.Buf, &want))
	}
	bp.Unpin(h, false)
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b *[PageSize]byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestWriteSessionReusesCapture: the pool hands a published or aborted
// capture to the next BeginCapture under a fresh id, so frames stamped
// by the earlier session are recorded again, and a session that writes
// one resident page allocates nothing (the capture, the pending frame
// and the version chain are all reused).
func TestWriteSessionReusesCapture(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	ids := makePages(t, bp, 2)
	session := func(id PageID) *Capture {
		c, err := bp.BeginCapture()
		if err != nil {
			t.Fatal(err)
		}
		f, err := bp.FetchForWrite(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Page.Buf[100]++
		bp.Unpin(f, true)
		if got := len(bp.EndCapture(c)); got != 1 {
			t.Fatalf("capture recorded %d frames, want 1", got)
		}
		return c
	}
	c1 := session(ids[0])
	id1 := c1.id
	bp.FinishPublish(bp.PreparePublish(c1))
	c2 := session(ids[0])
	if c2 != c1 || c2.id == id1 {
		t.Errorf("second capture %p id %d; want the first (%p) under a new id (not %d)", c2, c2.id, c1, id1)
	}
	bp.AbortCapture(c2)
	// A page created and stamped in one session, then re-dirtied in the
	// next, is recorded by the next.
	c3, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	bp.EndCapture(c3)
	bp.FinishPublish(bp.PreparePublish(c3))
	c4 := session(f.Page.ID)
	bp.FinishPublish(bp.PreparePublish(c4))

	allocs := testing.AllocsPerRun(100, func() {
		c := session(ids[1])
		bp.FinishPublish(bp.PreparePublish(c))
	})
	if allocs != 0 {
		t.Errorf("a one-page write session makes %.1f allocations, want 0", allocs)
	}
	if n := bp.VersionPages(); n != 0 {
		t.Errorf("VersionPages = %d, want 0", n)
	}
}

// BenchmarkFetchForWrite is a write session that changes one resident
// page: BeginCapture, FetchForWrite (the 8 kB copy-on-write copy),
// EndCapture and publish, which retires the pre-image (no snapshot reads
// it).
func BenchmarkFetchForWrite(b *testing.B) {
	bp := NewBufferPool(NewMemDisk(), 64)
	id := makePages(b, bp, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := bp.BeginCapture()
		if err != nil {
			b.Fatal(err)
		}
		f, err := bp.FetchForWrite(id)
		if err != nil {
			b.Fatal(err)
		}
		f.Page.Buf[100] = byte(i)
		bp.Unpin(f, true)
		bp.EndCapture(c)
		bp.FinishPublish(bp.PreparePublish(c))
	}
}
