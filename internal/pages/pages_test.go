package pages

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestPageInsertRead(t *testing.T) {
	var p Page
	p.Init(TypeData)
	recs := [][]byte{[]byte("alpha"), []byte("bravo-bravo"), {0x01, 0x02}}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		slots[i] = s
	}
	for i, r := range recs {
		got, err := p.Record(slots[i])
		if err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
		if !bytes.Equal(got, r) {
			t.Errorf("slot %d = %q, want %q", slots[i], got, r)
		}
	}
	if p.LiveRecords() != 3 {
		t.Errorf("LiveRecords = %d", p.LiveRecords())
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Init(TypeData)
	rec := make([]byte, 1000)
	inserted := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	// 8192-96 = 8096 usable; each record costs 1000+4 -> 8 fit.
	if inserted != 8 {
		t.Errorf("inserted %d records, want 8", inserted)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrPageFull) {
		t.Errorf("oversized record: %v", err)
	}
}

func TestPageDeleteUpdateCompact(t *testing.T) {
	var p Page
	p.Init(TypeData)
	s0, _ := p.Insert([]byte("first-record"))
	s1, _ := p.Insert([]byte("second-record"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(s0); !errors.Is(err, errBadSlot) {
		t.Errorf("dead slot read: %v", err)
	}
	if p.LiveRecords() != 1 {
		t.Errorf("LiveRecords = %d", p.LiveRecords())
	}
	// In-place update (same size or smaller).
	if err := p.Update(s1, []byte("SECOND")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Record(s1)
	if string(got) != "SECOND" {
		t.Errorf("after update: %q", got)
	}
	// Growing update allocates fresh space.
	long := bytes.Repeat([]byte("x"), 100)
	if err := p.Update(s1, long); err != nil {
		t.Fatal(err)
	}
	before := p.FreeSpace()
	p.Compact()
	if p.FreeSpace() <= before {
		t.Errorf("Compact did not reclaim: %d -> %d", before, p.FreeSpace())
	}
	got, _ = p.Record(s1)
	if !bytes.Equal(got, long) {
		t.Error("Compact corrupted record")
	}
	if err := p.Delete(99); !errors.Is(err, errBadSlot) {
		t.Errorf("bad delete: %v", err)
	}
	if err := p.Update(99, nil); !errors.Is(err, errBadSlot) {
		t.Errorf("bad update: %v", err)
	}
}

func TestPageChecksum(t *testing.T) {
	var p Page
	p.Init(TypeData)
	if _, err := p.Insert([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	p.UpdateChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("fresh checksum: %v", err)
	}
	p.Buf[HeaderSize] ^= 0xFF // corrupt a body byte
	if err := p.VerifyChecksum(); !errors.Is(err, errChecksum) {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestMemDisk(t *testing.T) {
	d := NewMemDisk()
	if d.NumPages() != 1 {
		t.Fatalf("fresh disk pages = %d", d.NumPages())
	}
	id, err := d.Allocate()
	if err != nil || id != 1 {
		t.Fatalf("Allocate = %d, %v", id, err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0x42
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Error("read back mismatch")
	}
	if err := d.ReadPage(99, got); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out of bounds read: %v", err)
	}
	if err := d.WritePage(99, buf); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out of bounds write: %v", err)
	}
}

func TestFileDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "persistent-bytes")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Errorf("reopened pages = %d, want 2", d2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := d2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("persistent-bytes")) {
		t.Error("data not persisted")
	}
	st, _ := os.Stat(path)
	if st.Size() != 2*PageSize {
		t.Errorf("file size = %d", st.Size())
	}
}

func TestBufferPoolFetchAndEvict(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 4)
	// Create 10 pages each holding one marker record.
	ids := make([]PageID, 10)
	for i := range ids {
		f, err := bp.NewPage(TypeData)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = f.Page.ID
		bp.Unpin(f, true)
	}
	// Re-fetch all; pool holds only 4, so evictions must occur and dirty
	// pages must round-trip through disk.
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch %d: %v", id, err)
		}
		rec, err := f.Page.Record(0)
		if err != nil || rec[0] != byte(i) {
			t.Fatalf("page %d record = %v, %v", id, rec, err)
		}
		bp.Unpin(f, false)
	}
	if bp.stats.evictions.Load() == 0 {
		t.Error("expected evictions with a small pool")
	}
	if bp.stats.physicalReads.Load() == 0 {
		t.Error("expected physical reads after eviction")
	}
	if got := bp.stats.logicalReads.Load(); got != 10 {
		t.Errorf("LogicalReads = %d, want 10", got)
	}
}

// TestResidentFetchAllocatesNothing holds the hit path allocation-free:
// a fetch of a cached page takes its frame off its SLRU segment and the
// unpin links it back through the frame's own links.
func TestResidentFetchAllocatesNothing(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	ids := makePages(t, bp, 2)
	allocs := testing.AllocsPerRun(100, func() {
		fetchUnpin(t, bp, ids[0])
		fetchUnpin(t, bp, ids[1])
	})
	if allocs != 0 {
		t.Errorf("Fetch + Unpin of resident pages: %.1f allocations per run, want 0", allocs)
	}
}

func TestBufferPoolPinnedExhaustion(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2)
	f1, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow pinleak exhaustion is the point: the call must fail and pin nothing
	if _, err := bp.NewPage(TypeData); err == nil {
		t.Error("expected exhaustion with all frames pinned")
	}
	bp.Unpin(f1, false)
	bp.Unpin(f2, false)
	//lint:allow pinleak deliberate terminal pin; the pool is discarded with the test
	if _, err := bp.NewPage(TypeData); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

func TestBufferPoolDropCleanBuffers(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 8)
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	if _, err := f.Page.Insert([]byte("dirty")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	if bp.CachedPages() != 0 {
		t.Errorf("cache not empty: %d", bp.CachedPages())
	}
	before := bp.stats.physicalReads.Load()
	f, err = bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := f.Page.Record(0)
	if string(rec) != "dirty" {
		t.Error("dirty page lost by DropCleanBuffers")
	}
	bp.Unpin(f, false)
	if got := bp.stats.physicalReads.Load() - before; got != 1 {
		t.Errorf("PhysicalReads = %d, want 1 (cold fetch)", got)
	}
	// Pinned pages block the drop.
	f, _ = bp.Fetch(id)
	if err := bp.DropCleanBuffers(); err == nil {
		t.Error("DropCleanBuffers must fail with pinned pages")
	}
	bp.Unpin(f, false)
}

func TestBufferPoolFlushAll(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 8)
	f, _ := bp.NewPage(TypeData)
	id := f.Page.ID
	if _, err := f.Page.Insert([]byte("flush-me")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := d.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	var p Page
	copy(p.Buf[:], raw)
	rec, err := p.Record(0)
	if err != nil || string(rec) != "flush-me" {
		t.Errorf("flushed page record = %q, %v", rec, err)
	}
}

func TestPageRandomizedInsertReadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var p Page
		p.Init(TypeData)
		var want [][]byte
		for {
			rec := make([]byte, 1+rng.Intn(300))
			rng.Read(rec)
			if _, err := p.Insert(rec); err != nil {
				break
			}
			want = append(want, rec)
		}
		for i, w := range want {
			got, err := p.Record(i)
			if err != nil || !bytes.Equal(got, w) {
				t.Fatalf("trial %d slot %d mismatch", trial, i)
			}
		}
	}
}

func TestIOModel(t *testing.T) {
	m := IOModel{SeqReadBytesPerSec: 1000e6}
	if got := m.SeqReadTime(1000e6); got.Seconds() < 0.99 || got.Seconds() > 1.01 {
		t.Errorf("SeqReadTime(1GB) = %v, want ~1s", got)
	}
	if (IOModel{}).SeqReadTime(1<<30) != 0 {
		t.Error("zero model must charge nothing")
	}
}

func TestBufferPoolPinnedFrames(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	if got := bp.PinnedFrames(); got != 0 {
		t.Fatalf("fresh pool PinnedFrames = %d", got)
	}
	f1, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.PinnedFrames(); got != 2 {
		t.Errorf("PinnedFrames after two NewPage = %d, want 2", got)
	}
	// A second Fetch of a pinned page raises its pin count but not the
	// pinned-frame count.
	f1b, err := bp.Fetch(f1.Page.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.PinnedFrames(); got != 2 {
		t.Errorf("PinnedFrames after re-Fetch = %d, want 2", got)
	}
	bp.Unpin(f1b, false)
	if got := bp.PinnedFrames(); got != 2 {
		t.Errorf("PinnedFrames after one of two unpins = %d, want 2", got)
	}
	bp.Unpin(f1, false)
	bp.Unpin(f2, true)
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after unpinning all = %d, want 0", got)
	}
	// The invariant DropCleanBuffers enforces is exactly "no pins".
	if err := bp.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers on quiesced pool: %v", err)
	}
}
