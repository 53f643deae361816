package pages

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// gateDisk holds every ReadPage of one page until the test answers it:
// the read announces itself on entered, then returns what the test sends
// on release (nil reads the page). Closing release lets every read
// through.
type gateDisk struct {
	*MemDisk
	page    PageID
	entered chan struct{}
	release chan error
	reads   atomic.Int32
}

func newGateDisk() *gateDisk {
	return &gateDisk{MemDisk: NewMemDisk(), entered: make(chan struct{}, 8), release: make(chan error)}
}

func (d *gateDisk) ReadPage(id PageID, buf []byte) error {
	if id == d.page {
		d.reads.Add(1)
		d.entered <- struct{}{}
		if err := <-d.release; err != nil {
			return err
		}
	}
	return d.MemDisk.ReadPage(id, buf)
}

// awaitRead waits until a read of the page has reached the disk.
func (d *gateDisk) awaitRead(t *testing.T) {
	t.Helper()
	select {
	case <-d.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("no read of page %d reached the disk", d.page)
	}
}

type fetched struct {
	f   *Frame
	err error
}

// goFetch runs fetch(id) on its own goroutine and delivers the result.
func goFetch(fetch func(PageID) (*Frame, error), id PageID) <-chan fetched {
	out := make(chan fetched, 1)
	go func() {
		f, err := fetch(id)
		out <- fetched{f, err}
	}()
	return out
}

// awaitWaiter waits until a goroutine is blocked in lookupLocked on a
// page another fetch is reading.
func awaitWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, ".(*BufferPool).lookupLocked(") {
				return
			}
		}
	}
	t.Fatal("no fetch waited for the page being read")
}

// receive returns the fetch result, failing after five seconds.
func receive(t *testing.T, c <-chan fetched, what string) fetched {
	t.Helper()
	select {
	case r := <-c:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
		return fetched{}
	}
}

// TestWriteSessionFillsEveryFrame: one write session dirties distinct
// random pages of a 2048-frame pool through FetchForWrite. Each pending
// copy holds a frame until the session ends, so the session must reach
// every frame of the pool, and only the page after that finds it full.
func TestWriteSessionFillsEveryFrame(t *testing.T) {
	const capacity = 2048
	bp := NewBufferPool(NewMemDisk(), capacity)
	ids := makePages(t, bp, 2*capacity)
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	c, err := bp.BeginCapture()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		bp.EndCapture(c)
		bp.AbortCapture(c)
	}()
	for i, id := range ids[:capacity] {
		f, err := bp.FetchForWrite(id)
		if err != nil {
			t.Fatalf("write %d of %d: %v", i+1, capacity, err)
		}
		f.Page.Buf[100] = 1
		bp.Unpin(f, true)
	}
	//lint:allow pinleak the fetch must fail on the full pool and pins nothing
	if _, err := bp.FetchForWrite(ids[capacity]); err == nil {
		t.Fatal("a write past the pool's frames succeeded")
	}
}

// TestConcurrentMissesReadOnce: two fetches that miss on the same page
// cause one disk read, and both get the frame it filled.
func TestConcurrentMissesReadOnce(t *testing.T) {
	d := newGateDisk()
	defer close(d.release)
	bp := NewBufferPool(d, 16)
	d.page = makePages(t, bp, 1)[0]
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	reads0 := bp.stats.physicalReads.Load()
	first := goFetch(bp.Fetch, d.page)
	d.awaitRead(t)
	second := goFetch(bp.Fetch, d.page)
	awaitWaiter(t)
	d.release <- nil
	a, b := receive(t, first, "first fetch"), receive(t, second, "second fetch")
	if a.err != nil || b.err != nil {
		t.Fatalf("fetches: %v, %v", a.err, b.err)
	}
	bp.Unpin(a.f, false)
	bp.Unpin(b.f, false)
	if a.f != b.f {
		t.Error("the two fetches got different frames")
	}
	if n := d.reads.Load(); n != 1 {
		t.Errorf("disk reads = %d, want 1", n)
	}
	if n := bp.stats.physicalReads.Load() - reads0; n != 1 {
		t.Errorf("physical_reads moved by %d, want 1", n)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames = %d", n)
	}
}

// TestHitDoesNotWaitForAMiss: while the disk holds one fetch's read, a
// fetch of another cached page returns. The pool is small (127 frames),
// so the miss and the hit share its one lock.
func TestHitDoesNotWaitForAMiss(t *testing.T) {
	d := newGateDisk()
	defer close(d.release)
	bp := NewBufferPool(d, 127)
	ids := makePages(t, bp, 2)
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatal(err)
	}
	d.page = ids[0]
	fetchUnpin(t, bp, ids[1])
	miss := goFetch(bp.Fetch, ids[0])
	d.awaitRead(t)
	hit := receive(t, goFetch(bp.Fetch, ids[1]), "fetch of a cached page during another page's read")
	if hit.err != nil {
		t.Fatal(hit.err)
	}
	bp.Unpin(hit.f, false)
	d.release <- nil
	r := receive(t, miss, "the missing fetch")
	if r.err != nil {
		t.Fatal(r.err)
	}
	bp.Unpin(r.f, false)
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames = %d", n)
	}
}
