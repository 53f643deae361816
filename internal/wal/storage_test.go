package wal

import (
	"bytes"
	"testing"
)

// damageDurable flips mask into the segment byte at off and marks the
// whole segment synced: damage that reached the platter, which Crash
// does not undo.
func (s *memSegment) damageDurable(off int, mask byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slabs[off/memSlabSize][off%memSlabSize] ^= mask
	s.synced = s.size
}

// wipe empties the segment, its synced bytes included.
func (s *memSegment) wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut(0)
}

// pattern returns n bytes that differ from their neighbours and from
// the same offset under another seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + byte(i>>8) + seed
	}
	return b
}

// contents reads the segment's whole logical length.
func contents(t *testing.T, s *memSegment) []byte {
	t.Helper()
	size, _ := s.Size()
	if size == 0 {
		return nil
	}
	b := make([]byte, size)
	if _, err := s.ReadAt(b, 0); err != nil {
		t.Fatalf("ReadAt(whole segment of %d bytes): %v", size, err)
	}
	return b
}

func TestMemSegmentReadAtAcrossSlabEdges(t *testing.T) {
	s := &memSegment{}
	want := pattern(2*memSlabSize+300, 1)
	// Appends of uneven sizes, so their ends fall on and off slab edges.
	for p := want; len(p) > 0; {
		n := min(len(p), 7001)
		if err := s.Append(p[:n]); err != nil {
			t.Fatal(err)
		}
		p = p[n:]
	}
	if len(s.slabs) != 3 {
		t.Fatalf("%d bytes in %d slabs, want 3", len(want), len(s.slabs))
	}
	for _, c := range []struct{ off, n int }{
		{memSlabSize - 10, 20},                       // straddles the first edge
		{memSlabSize - 1, memSlabSize + 2},           // spans a whole slab
		{0, len(want)},                               // everything
		{memSlabSize, 5},                             // starts exactly on an edge
		{2*memSlabSize - 5, 305},                     // up to the logical end
		{len(want) - 1, 1},                           // the last byte
		{2 * memSlabSize, len(want) - 2*memSlabSize}, // the partial last slab
	} {
		got := make([]byte, c.n)
		if _, err := s.ReadAt(got, int64(c.off)); err != nil {
			t.Fatalf("ReadAt(%d bytes at %d): %v", c.n, c.off, err)
		}
		if !bytes.Equal(got, want[c.off:c.off+c.n]) {
			t.Errorf("ReadAt(%d bytes at %d) returned other bytes", c.n, c.off)
		}
	}
	// A read past the logical length is short, even though the last
	// slab has room behind it.
	if n, err := s.ReadAt(make([]byte, 10), int64(len(want)-4)); err == nil || n != 4 {
		t.Errorf("read over the end: n=%d err=%v, want 4 and an error", n, err)
	}
	if _, err := s.ReadAt(make([]byte, 1), int64(len(want))); err == nil {
		t.Error("read at the end succeeded")
	}
}

// TestMemSegmentCutsAcrossSlabEdges: Crash, Truncate and CorruptTail
// whose cut falls across a slab edge act on the logical length, and an
// append after a cut reads back its own bytes, not the stale ones the
// cut left in the slab.
func TestMemSegmentCutsAcrossSlabEdges(t *testing.T) {
	t.Run("crash", func(t *testing.T) {
		st := NewMemStorage()
		sg, _ := st.Create(0)
		s := sg.(*memSegment)
		durable := pattern(memSlabSize+100, 1)
		s.Append(durable)
		s.Sync()
		s.Append(pattern(2*memSlabSize, 2)) // unsynced, into a third slab
		st.Crash()
		if got := contents(t, s); !bytes.Equal(got, durable) {
			t.Fatalf("after crash: %d bytes, want the %d synced ones", len(got), len(durable))
		}
		if len(s.slabs) != 2 {
			t.Errorf("after crash %d slabs, want 2", len(s.slabs))
		}
		// Fresh bytes land where the lost ones were, across the edge.
		fresh := pattern(memSlabSize, 3)
		s.Append(fresh)
		if got := contents(t, s); !bytes.Equal(got, append(durable, fresh...)) {
			t.Fatal("append after crash does not read back its own bytes")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		s := &memSegment{}
		all := pattern(2*memSlabSize+10, 4)
		s.Append(all)
		s.Sync()
		cut := memSlabSize - 10
		if err := s.Truncate(int64(cut)); err != nil {
			t.Fatal(err)
		}
		if got := contents(t, s); !bytes.Equal(got, all[:cut]) || s.synced != cut || len(s.slabs) != 1 {
			t.Fatalf("truncate to %d: %d bytes, synced %d, %d slabs", cut, len(got), s.synced, len(s.slabs))
		}
		fresh := pattern(40, 5)
		s.Append(fresh)
		if got := contents(t, s); !bytes.Equal(got, append(all[:cut:cut], fresh...)) {
			t.Fatal("append after truncate does not read back its own bytes")
		}
		// Truncating to a larger size changes nothing.
		s.Truncate(1 << 30)
		if size, _ := s.Size(); size != int64(cut+len(fresh)) {
			t.Fatalf("truncate past the end changed the size to %d", size)
		}
	})
	t.Run("corrupt-tail", func(t *testing.T) {
		st := NewMemStorage()
		sg, _ := st.Create(3)
		s := sg.(*memSegment)
		all := pattern(memSlabSize+5, 6)
		s.Append(all)
		s.Sync()
		st.CorruptTail(10)
		got := contents(t, s)
		for i := range all {
			want := all[i]
			if i >= len(all)-10 {
				want ^= 0xA5
			}
			if got[i] != want {
				t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
			}
		}
	})
}

// TestRecordsStraddleSlabEdges: records whose frames cross slab edges
// replay intact, and a torn tail that crosses an edge is cut at the
// last whole record.
func TestRecordsStraddleSlabEdges(t *testing.T) {
	st := NewMemStorage()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := pattern(9000+i, byte(i))
		want = append(want, p)
		if _, err := l.Append(RecPageImage, p[:100], p[100:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := st.segs[0]
	if seg.size < 2*memSlabSize {
		t.Fatalf("log of %d bytes crosses fewer than two slab edges", seg.size)
	}
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, l2)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d differs after replay", i)
		}
	}

	// Append one more record that starts a few bytes before the next
	// slab edge, then tear it across the edge.
	pad := int(l2.NextLSN()) + segHeaderSize
	pad = (pad/memSlabSize+1)*memSlabSize - pad - frameHeaderSize - 8
	if _, err := l2.Append(RecCommit, make([]byte, pad)); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(RecCommit, pattern(64, 9)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	st.CorruptTail(80) // the torn bytes start before the edge
	l3, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, _ = collect(t, l3)
	if len(payloads) != len(want)+1 || len(payloads[len(want)]) != pad {
		t.Fatalf("after a torn tail across a slab edge: %d records, want %d", len(payloads), len(want)+1)
	}
}

// TestFileSegmentAppendAfterTruncate: an Append after a Truncate lands
// at the truncated end, and the bytes read back the same through a
// reopened DirStorage.
func TestFileSegmentAppendAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := st.Create(0)
	if err != nil {
		t.Fatal(err)
	}
	head, tail := pattern(300, 1), pattern(200, 2)
	if err := seg.Append(head); err != nil {
		t.Fatal(err)
	}
	if err := seg.Append(pattern(500, 3)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Truncate(int64(len(head))); err != nil {
		t.Fatal(err)
	}
	if err := seg.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := st2.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	want := append(append([]byte{}, head...), tail...)
	if size, err := seg2.Size(); err != nil || size != int64(len(want)) {
		t.Fatalf("reopened segment is %d bytes (%v), want %d", size, err, len(want))
	}
	got := make([]byte, len(want))
	if _, err := seg2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reopened segment does not hold the kept bytes followed by the appended ones")
	}
	// The reopened segment appends at its end too.
	if err := seg2.Append(head); err != nil {
		t.Fatal(err)
	}
	if size, _ := seg2.Size(); size != int64(len(want)+len(head)) {
		t.Fatalf("after an append to the reopened segment: %d bytes, want %d", size, len(want)+len(head))
	}
}
