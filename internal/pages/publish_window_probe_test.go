package pages

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Probe: a snapshot acquired between PreparePublish and FinishPublish
// (legal, since readers never hold the write lock) must still resolve
// every page. droppableLocked has no "superseding commit is published"
// check, so with no other snapshot active the pre-image is retired
// inside PreparePublish and the mid-window snapshot fails.
func TestProbePublishWindowSnapshot(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	bp.Unpin(f, true)

	// Commit 1: publish the page so it has a committed version.
	c1, _ := bp.BeginCapture()
	f, err = bp.FetchForWrite(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Page.Buf[100] = 1
	bp.Unpin(f, true)
	bp.EndCapture(c1)
	bp.FinishPublish(bp.PreparePublish(c1))

	// Commit 2: stop between PreparePublish and FinishPublish.
	c2, _ := bp.BeginCapture()
	f, err = bp.FetchForWrite(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Page.Buf[100] = 2
	bp.Unpin(f, true)
	bp.EndCapture(c2)
	tag := bp.PreparePublish(c2)

	sn := bp.AcquireSnapshot() // concurrent reader lands here
	defer sn.Release()
	sf, err := sn.Fetch(id)
	if err != nil {
		t.Fatalf("snapshot acquired mid-publish cannot read page: %v", err)
	}
	sn.Unpin(sf, false)
	bp.FinishPublish(tag)
}

// TestSnapshotAcquireRacesFinishPublish: FinishPublish's clock tick must
// not land between AcquireSnapshot reading the clock and registering
// that tag in minSnap — the retirement after the tick would then see no
// snapshot at the old tag and drop the pre-image the new snapshot
// resolves to ("no visible version"). Readers loop acquire/fetch against
// a committing writer; every snapshot must resolve the page to a
// committed value. The window is a few instructions wide, so the
// writer commits for a full second: without the lock that catches it on
// most runs, with or without -race (9 of 10 and 2 of 3 when measured on
// a 2-vCPU VM).
func TestSnapshotAcquireRacesFinishPublish(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	bp.Unpin(f, true)
	commit := func(v byte) error {
		c, _ := bp.BeginCapture()
		f, err := bp.FetchForWrite(id)
		if err != nil {
			bp.EndCapture(c)
			bp.AbortCapture(c)
			return err
		}
		f.Page.Buf[100] = v
		bp.Unpin(f, true)
		bp.EndCapture(c)
		bp.FinishPublish(bp.PreparePublish(c))
		return nil
	}
	if err := commit(1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := bp.AcquireSnapshot()
				f, err := sn.Fetch(id)
				if err == nil {
					if f.Page.Buf[100] == 0 {
						err = fmt.Errorf("snapshot %d read an uncommitted page", sn.Tag())
					}
					sn.Unpin(f, false)
				}
				sn.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(time.Second)
	for i := 0; len(errs) == 0 && (i%256 != 0 || time.Now().Before(deadline)); i++ {
		if err := commit(byte(i%250) + 1); err != nil {
			t.Errorf("commit %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Error(err)
	default:
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames = %d", n)
	}
}
