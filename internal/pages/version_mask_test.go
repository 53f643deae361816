package pages

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// spreadPool returns a 32-shard pool and n pages on it that fall in at
// least minShards different shards.
func spreadPool(t *testing.T, n, minShards int) (*BufferPool, []PageID) {
	t.Helper()
	bp := NewBufferPool(NewMemDisk(), 2048)
	ids := makePages(t, bp, n)
	if got := len(shardsOf(bp, ids)); got < minShards {
		t.Fatalf("%d pages fall in %d shards, want >= %d", n, got, minShards)
	}
	return bp, ids
}

// shardsOf returns the set of shards holding ids.
func shardsOf(bp *BufferPool, ids []PageID) map[*shard]bool {
	set := map[*shard]bool{}
	for _, id := range ids {
		set[bp.shardFor(id)] = true
	}
	return set
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
// pre-images of a commit that wrote pages in several shards, the
// version mask marks exactly those shards, and releasing the snapshot
// retires every version and clears the mask.
func TestReleaseRetiresVersionsInEveryShard(t *testing.T) {
	bp, ids := spreadPool(t, 12, 3)
	mustCommitAll(t, bp, ids, 1)
	sn := bp.AcquireSnapshot()
	mustCommitAll(t, bp, ids, 2)
	if got := bp.VersionPages(); got != len(ids) {
		t.Fatalf("VersionPages with a snapshot held = %d, want %d", got, len(ids))
	}
	var want uint64
	for s := range shardsOf(bp, ids) {
		want |= s.bit
	}
	if got := bp.versMask.Load(); got != want {
		t.Fatalf("version mask %#x, want %#x (the written shards)", got, want)
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
	if got := bp.versMask.Load(); got != 0 {
		t.Errorf("version mask after the release = %#x, want 0", got)
	}
}

// TestPartialRetirementKeepsTheShardMarked: a sweep that empties one
// page's chain but not the shard's sidecar must leave the shard's bit
// set, or the versions still there are never visited again. Pages p
// and q share the pool's one shard; p's pre-image dies with the first
// snapshot, q's with the second.
func TestPartialRetirementKeepsTheShardMarked(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	ids := makePages(t, bp, 2)
	p, q := ids[:1], ids[1:]
	s1 := bp.AcquireSnapshot()
	mustCommitAll(t, bp, p, 1)
	s2 := bp.AcquireSnapshot()
	mustCommitAll(t, bp, q, 1)
	s1.Release()
	if got := bp.VersionPages(); got != 1 {
		t.Fatalf("VersionPages with the second snapshot held = %d, want 1 (q's pre-image)", got)
	}
	s2.Release()
	if got := bp.VersionPages(); got != 0 {
		t.Errorf("VersionPages after both releases = %d, want 0", got)
	}
}

// TestRetirementLocksOnlyMarkedShards: with every other shard's lock
// held elsewhere, a release over an empty sidecar and a commit that
// writes one shard both finish, because retirement visits only the
// shards the version mask marks. A sweep of every shard blocks here.
func TestRetirementLocksOnlyMarkedShards(t *testing.T) {
	bp, ids := spreadPool(t, 1, 1)
	mine := bp.shardFor(ids[0])
	for _, s := range bp.shards {
		if s != mine {
			s.mu.Lock()
		}
	}
	done := make(chan error)
	go func() {
		bp.AcquireSnapshot().Release()
		err := commitAll(bp, ids, 1)
		bp.AcquireSnapshot().Release()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release or commit waited on a shard it did not write")
	}
	for _, s := range bp.shards {
		if s != mine {
			s.mu.Unlock()
		}
	}
	if got := bp.versMask.Load(); got != 0 {
		t.Errorf("version mask after the commit = %#x, want 0", got)
	}
}

// TestSnapshotsRaceCommitsAcrossShards: readers acquire a snapshot,
// read every page and release it while a writer commits to pages in
// several shards. A snapshot must see one commit on every page, never a
// mix, and at quiesce no version, snapshot or pin is left. `make race`
// runs it under the race detector.
func TestSnapshotsRaceCommitsAcrossShards(t *testing.T) {
	bp, ids := spreadPool(t, 12, 3)
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
	if m := bp.versMask.Load(); m != 0 {
		t.Errorf("version mask at quiesce = %#x", m)
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
