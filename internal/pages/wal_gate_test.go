package pages

import (
	"errors"
	"sync/atomic"
	"testing"
)

// fakeWAL is a controllable flush gate.
type fakeWAL struct {
	durable atomic.Uint64
	synced  atomic.Int64
}

func (w *fakeWAL) DurableLSN() uint64 { return w.durable.Load() }
func (w *fakeWAL) Sync() error        { w.synced.Add(1); return nil }

// dirtyOnePage creates a page, writes through it, and returns its id.
func dirtyOnePage(t *testing.T, bp *BufferPool) PageID {
	t.Helper()
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	bp.Unpin(f, true)
	return id
}

func TestEvictionRespectsDurableLSN(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 2)
	w := &fakeWAL{}
	bp.SetWAL(w)

	// Two dirty frames fill the pool; both logged at LSN 10 and 20 but
	// nothing durable yet.
	cap1, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	id1 := dirtyOnePage(t, bp)
	id2 := dirtyOnePage(t, bp)
	frames := bp.EndCapture(cap1)
	if len(frames) != 2 {
		t.Fatalf("captured %d frames, want 2", len(frames))
	}
	lsns := map[PageID]uint64{id1: 10, id2: 20}
	for _, f := range frames {
		lsn := lsns[f.Page.ID]
		if err := bp.LogDirtyFrame(f, func(p *Page) (uint64, error) { return lsn, nil }); err != nil {
			t.Fatal(err)
		}
	}
	bp.FinishPublish(bp.PreparePublish(cap1))

	// With durable = 0 no dirty frame may be flushed: allocating a third
	// page must fail rather than evict one.
	//lint:allow pinleak the WAL gate must reject the allocation, so nothing is pinned
	if _, err := bp.NewPage(TypeData); err == nil {
		t.Fatal("NewPage evicted a frame whose pageLSN exceeds the durable LSN")
	}

	// Making LSN 10 durable (durable LSN past it) frees exactly one
	// victim.
	w.durable.Store(11)
	f3, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatalf("NewPage after partial durability: %v", err)
	}
	bp.Unpin(f3, false)
	// id1 must be the evicted one: it is gone from cache, id2 remains.
	if disk.NumPages() < 2 {
		t.Fatalf("flushed page never reached disk")
	}
}

func TestUnloggedFramesAreNeverFlushed(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	w := &fakeWAL{}
	w.durable.Store(1 << 60) // everything logged is durable
	bp.SetWAL(w)

	c, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	dirtyOnePage(t, bp)
	// Mid-session (capture active, frame unlogged): FlushAll must refuse.
	if err := bp.FlushAll(); err == nil {
		t.Fatal("FlushAll flushed an unlogged frame of an active write session")
	}
	frames := bp.EndCapture(c)
	for _, f := range frames {
		if err := bp.LogDirtyFrame(f, func(p *Page) (uint64, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	bp.FinishPublish(bp.PreparePublish(c))
	if err := bp.FlushAll(); err != nil {
		t.Fatalf("FlushAll after logging: %v", err)
	}
	if w.synced.Load() == 0 {
		t.Fatal("FlushAll did not sync the WAL first")
	}
}

func TestCaptureRecordsEachFrameOnce(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 8)
	bp.SetWAL(&fakeWAL{})
	c, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	bp.Unpin(f, true)
	// Re-dirty the same page.
	f2, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f2, true)
	frames := bp.EndCapture(c)
	if len(frames) != 1 {
		t.Fatalf("captured %d frames for one page, want 1", len(frames))
	}
	if frames[0].PageLSN() != 0 {
		t.Fatalf("unlogged frame has pageLSN %d", frames[0].PageLSN())
	}
}

func TestFaultDiskFailsAndTears(t *testing.T) {
	inner := NewMemDisk()
	d := NewFaultDisk(inner)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	full := make([]byte, PageSize)
	for i := range full {
		full[i] = 0x11
	}
	if err := d.WritePage(id, full); err != nil {
		t.Fatal(err)
	}
	// Arm a torn write: the next write persists only its first half.
	d.FailAfterWrites(0, true)
	newBuf := make([]byte, PageSize)
	for i := range newBuf {
		newBuf[i] = 0x22
	}
	err = d.WritePage(id, newBuf)
	if !errors.Is(err, errInjected) {
		t.Fatalf("torn write error = %v", err)
	}
	got := make([]byte, PageSize)
	if err := inner.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x22 || got[PageSize-1] != 0x11 {
		t.Fatalf("torn write left first byte %x last byte %x, want 22 / 11", got[0], got[PageSize-1])
	}
	// Disk is crashed: further writes and fsyncs fail until healed.
	if err := d.WritePage(id, full); !errors.Is(err, errInjected) {
		t.Fatalf("post-crash write error = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("post-crash Sync error = %v", err)
	}
	d.Heal()
	if err := d.WritePage(id, full); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync after heal: %v", err)
	}
}

func TestPageLSNRoundTrip(t *testing.T) {
	var p Page
	p.Init(TypeData)
	p.SetLSN(0xDEADBEEF01)
	if got := p.LSN(); got != 0xDEADBEEF01 {
		t.Fatalf("LSN round trip got %x", got)
	}
	p.UpdateChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
}
