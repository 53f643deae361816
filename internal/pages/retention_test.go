package pages

import "testing"

// TestVersionsFollowLiveTags: a page keeps one version per distinct live
// snapshot tag that reads an older commit of it, however many commits
// land after the snapshots opened, and each release retires exactly
// the versions only its tag read.
func TestVersionsFollowLiveTags(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	ids := makePages(t, bp, 1)
	mustCommitAll(t, bp, ids, 1)
	s1 := bp.AcquireSnapshot()
	s1b := bp.AcquireSnapshot() // same tag as s1
	mustCommitAll(t, bp, ids, 2)
	s2 := bp.AcquireSnapshot()
	for v := byte(3); v < 200; v++ {
		mustCommitAll(t, bp, ids, v)
	}
	if got := bp.VersionPages(); got != 2 {
		t.Fatalf("VersionPages with snapshots at two tags = %d, want 2", got)
	}
	for _, c := range []struct {
		sn   *Snapshot
		want byte
	}{{s1, 1}, {s1b, 1}, {s2, 2}} {
		f, err := c.sn.Fetch(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Page.Buf[100]; got != c.want {
			t.Errorf("snapshot %d reads %d, want %d", c.sn.Tag(), got, c.want)
		}
		c.sn.Unpin(f, false)
	}
	s1.Release()
	if got := bp.VersionPages(); got != 2 {
		t.Errorf("VersionPages with a snapshot still at the first tag = %d, want 2", got)
	}
	s1b.Release()
	if got := bp.VersionPages(); got != 1 {
		t.Errorf("VersionPages after the first tag's last release = %d, want 1", got)
	}
	s2.Release()
	if got := bp.VersionPages(); got != 0 {
		t.Errorf("VersionPages after every release = %d, want 0", got)
	}
}

// TestUnpinRetiresReleasedVersion: a version still pinned when its
// snapshot is released is retired by its last unpin.
func TestUnpinRetiresReleasedVersion(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 16)
	ids := makePages(t, bp, 1)
	mustCommitAll(t, bp, ids, 1)
	sn := bp.AcquireSnapshot()
	mustCommitAll(t, bp, ids, 2)
	f, err := sn.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sn.Release()
	if got := bp.VersionPages(); got != 1 {
		t.Fatalf("VersionPages with the version pinned = %d, want 1", got)
	}
	bp.Unpin(f, false)
	if got := bp.VersionPages(); got != 0 {
		t.Errorf("VersionPages after the last unpin = %d, want 0", got)
	}
}
