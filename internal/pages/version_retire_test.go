package pages

import (
	"fmt"
	"sync"
	"testing"
)

// spreadPool returns a 2048-frame pool and n pages on it.
func spreadPool(t *testing.T, n int) (*BufferPool, []PageID) {
	t.Helper()
	bp := NewBufferPool(NewMemDisk(), 2048)
	return bp, makePages(t, bp, n)
}

// commitAll writes v at byte 100 of every page in one capture and
// publishes it.
func commitAll(bp *BufferPool, ids []PageID, v byte) error {
	c, err := bp.BeginCapture()
	if err != nil {
		return err
	}
	for _, id := range ids {
		f, err := bp.FetchForWrite(id)
		if err != nil {
			bp.EndCapture(c)
			bp.AbortCapture(c)
			return err
		}
		f.Page.Buf[100] = v
		bp.Unpin(f, true)
	}
	bp.EndCapture(c)
	bp.FinishPublish(bp.PreparePublish(c))
	return nil
}

func mustCommitAll(t *testing.T, bp *BufferPool, ids []PageID, v byte) {
	t.Helper()
	if err := commitAll(bp, ids, v); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRetiresVersionsInEveryShard: a held snapshot keeps the
// pre-images of a commit that wrote many pages, and releasing the
// snapshot retires every version.
func TestReleaseRetiresVersionsInEveryShard(t *testing.T) {
	bp, ids := spreadPool(t, 12)
	mustCommitAll(t, bp, ids, 1)
	sn := bp.AcquireSnapshot()
	mustCommitAll(t, bp, ids, 2)
	if got := bp.VersionPages(); got != len(ids) {
		t.Fatalf("VersionPages with a snapshot held = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		f, err := sn.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Page.Buf[100] != 1 {
			t.Errorf("snapshot reads %d on page %d, want 1", f.Page.Buf[100], id)
		}
		sn.Unpin(f, false)
	}
	sn.Release()
	if got := bp.VersionPages(); got != 0 {
		t.Errorf("VersionPages after the release = %d, want 0", got)
	}
}

// TestSnapshotsRaceCommitsAcrossShards: readers acquire a snapshot,
// read every page and release it while a writer commits to many pages.
// A snapshot must see one commit on every page, never a
// mix, and at quiesce no version, snapshot or pin is left. `make race`
// runs it under the race detector.
func TestSnapshotsRaceCommitsAcrossShards(t *testing.T) {
	bp, ids := spreadPool(t, 12)
	mustCommitAll(t, bp, ids, 1)

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := readAllAtOneCommit(bp, ids); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 500 && len(errs) == 0; i++ {
		if err := commitAll(bp, ids, byte(i%250)+2); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := bp.VersionPages(); n != 0 {
		t.Errorf("VersionPages at quiesce = %d", n)
	}
	if n := bp.ActiveSnapshots(); n != 0 {
		t.Errorf("ActiveSnapshots at quiesce = %d", n)
	}
	if n := bp.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames at quiesce = %d", n)
	}
}

// readAllAtOneCommit reads byte 100 of every page through one snapshot
// and fails unless all pages carry the same committed value.
func readAllAtOneCommit(bp *BufferPool, ids []PageID) error {
	sn := bp.AcquireSnapshot()
	defer sn.Release()
	var first byte
	for i, id := range ids {
		f, err := sn.Fetch(id)
		if err != nil {
			return err
		}
		v := f.Page.Buf[100]
		sn.Unpin(f, false)
		if i == 0 {
			first = v
		}
		if v == 0 || v != first {
			return fmt.Errorf("snapshot %d reads %d on page %d and %d on page %d", sn.Tag(), first, ids[0], v, id)
		}
	}
	return nil
}
