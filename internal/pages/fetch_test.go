package pages

import (
	"errors"
	"testing"
)

// readFaultDisk fails ReadPage for one page id (FaultDisk only fails
// writes).
type readFaultDisk struct {
	*MemDisk
	failRead PageID
}

var errInjectedRead = errors.New("injected read failure")

func (d *readFaultDisk) ReadPage(id PageID, buf []byte) error {
	if id == d.failRead {
		return errInjectedRead
	}
	return d.MemDisk.ReadPage(id, buf)
}

// TestLoaderFailureFreesFrame drives the one miss loader to failure
// through each of its three entry points: the error must surface, the
// page must not enter the table, nothing stays pinned or cached, and —
// on a pool of a single frame — the frame must really be back on the
// free list, or the following fetch of a good page could not succeed.
func TestLoaderFailureFreesFrame(t *testing.T) {
	type entry struct {
		name  string
		fetch func(bp *BufferPool, sn *Snapshot, id PageID) (*Frame, error)
		write bool // runs under a capture
	}
	entries := []entry{
		{"Fetch", func(bp *BufferPool, _ *Snapshot, id PageID) (*Frame, error) { return bp.Fetch(id) }, false},
		{"SnapshotFetch", func(_ *BufferPool, sn *Snapshot, id PageID) (*Frame, error) { return sn.Fetch(id) }, false},
		{"FetchForWrite", func(bp *BufferPool, _ *Snapshot, id PageID) (*Frame, error) { return bp.FetchForWrite(id) }, true},
	}
	faults := []struct {
		name   string
		want   error
		inject func(t *testing.T, d *readFaultDisk, id PageID)
	}{
		{"corrupt", errChecksum, func(t *testing.T, d *readFaultDisk, id PageID) {
			raw := make([]byte, PageSize)
			if err := d.MemDisk.ReadPage(id, raw); err != nil {
				t.Fatal(err)
			}
			raw[HeaderSize+2] ^= 0x01
			if err := d.WritePage(id, raw); err != nil {
				t.Fatal(err)
			}
		}},
		{"readerror", errInjectedRead, func(_ *testing.T, d *readFaultDisk, id PageID) { d.failRead = id }},
	}
	for _, e := range entries {
		for _, fault := range faults {
			t.Run(e.name+"/"+fault.name, func(t *testing.T) {
				d := &readFaultDisk{MemDisk: NewMemDisk()}
				bp := NewBufferPool(d, 1)
				ids := makePages(t, bp, 2)
				bad, good := ids[0], ids[1]
				if err := bp.DropCleanBuffers(); err != nil {
					t.Fatal(err)
				}
				fault.inject(t, d, bad)
				sn := bp.AcquireSnapshot()
				defer sn.Release()
				var c *Capture
				if e.write {
					var err error
					if c, err = bp.BeginCapture(); err != nil {
						t.Fatal(err)
					}
				}
				cached := bp.CachedPages()

				//lint:allow pinleak the fetch must fail in the loader and pin nothing
				if _, err := e.fetch(bp, sn, bad); !errors.Is(err, fault.want) {
					t.Fatalf("fetch of bad page: %v, want %v", err, fault.want)
				}
				s := bp.shardFor(bad)
				s.mu.Lock()
				_, inTable := s.table[bad]
				s.mu.Unlock()
				if inTable {
					t.Error("failed page entered the page table")
				}
				if got := bp.PinnedFrames(); got != 0 {
					t.Errorf("PinnedFrames after failed fetch = %d", got)
				}
				if got := bp.CachedPages(); got != cached {
					t.Errorf("CachedPages %d -> %d across a failed fetch", cached, got)
				}
				if got := bp.VersionPages(); got != 0 {
					t.Errorf("VersionPages after failed fetch = %d", got)
				}

				f, err := e.fetch(bp, sn, good)
				if err != nil {
					t.Fatalf("fetch of good page after the failure: %v", err)
				}
				bp.Unpin(f, false)
				if c != nil {
					bp.EndCapture(c)
					bp.AbortCapture(c)
				}
				if got := bp.PinnedFrames(); got != 0 {
					t.Errorf("PinnedFrames at end = %d", got)
				}
			})
		}
	}
}

// TestFetchVisibility is the visibility table of the merged fetch: for
// every state one page can be in, which version each view reads — a
// snapshot taken before the page's last write, one taken after it, and
// current mode — where it comes from, and which counters the fetch
// moves. The page holds v1 (pre-history) and, in the states with a
// write, v2.
func TestFetchVisibility(t *testing.T) {
	const at = HeaderSize + 8 // the byte holding the version marker

	// source of the returned frame
	const (
		table   = "table"
		pending = "pending"
		sidecar = "sidecar"
	)
	type delta struct{ physical, snapshot, promotions, admissions uint64 }
	var (
		hit     = delta{promotions: 1}
		miss    = delta{physical: 1, admissions: 1}
		version = delta{snapshot: 1}
	)
	type want struct {
		marker byte
		source string
		moved  delta
	}
	// stage is how far the write of v2 got when the views fetch.
	type stage int
	const (
		noWrite  stage = iota
		written        // FetchForWrite done, capture open
		prepared       // PreparePublish done, clock not advanced
		published
	)
	states := []struct {
		name                   string
		stage                  stage
		drop                   bool // DropCleanBuffers before fetching
		current, before, after want
	}{
		{"uncached", noWrite, true,
			want{1, table, miss}, want{1, table, miss}, want{1, table, miss}},
		{"cached current", noWrite, false,
			want{1, table, hit}, want{1, table, hit}, want{1, table, hit}},
		{"cached pending", written, false,
			want{2, pending, hit}, want{1, sidecar, version}, want{1, sidecar, version}},
		{"cached stamped, commit not yet visible", prepared, false,
			want{2, table, hit}, want{1, sidecar, version}, want{1, sidecar, version}},
		{"cached too new, sidecar version", published, false,
			want{2, table, hit}, want{1, sidecar, version}, want{2, table, hit}},
		{"uncached, disk newer than the snapshot", published, true,
			want{2, table, miss}, want{1, sidecar, version}, want{2, table, miss}},
	}
	for _, st := range states {
		for _, view := range []string{"current", "before", "after"} {
			t.Run(st.name+"/"+view, func(t *testing.T) {
				bp := NewBufferPool(NewMemDisk(), 16)
				f, err := bp.NewPage(TypeData)
				if err != nil {
					t.Fatal(err)
				}
				id := f.Page.ID
				f.Page.Buf[at] = 1
				bp.Unpin(f, true)

				before := bp.AcquireSnapshot()
				var c *Capture
				var tag uint64
				if st.stage >= written {
					if c, err = bp.BeginCapture(); err != nil {
						t.Fatal(err)
					}
					if f, err = bp.FetchForWrite(id); err != nil {
						t.Fatal(err)
					}
					f.Page.Buf[at] = 2
					bp.Unpin(f, true)
				}
				if st.stage >= prepared {
					bp.EndCapture(c)
					tag = bp.PreparePublish(c)
				}
				if st.stage >= published {
					bp.FinishPublish(tag)
				}
				after := bp.AcquireSnapshot()
				if st.drop {
					if err := bp.DropCleanBuffers(); err != nil {
						t.Fatal(err)
					}
				}

				var fx Fetcher
				var w want
				switch view {
				case "current":
					fx, w = bp, st.current
				case "before":
					fx, w = before, st.before
				case "after":
					fx, w = after, st.after
				}
				ctr := &bp.stats
				l0, p0, r0, m0, a0 := ctr.logicalReads.Load(), ctr.physicalReads.Load(), ctr.snapshotReads.Load(), ctr.promotions.Load(), ctr.admissions.Load()
				f, err = fx.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := f.Page.Buf[at]; got != w.marker {
					t.Errorf("read v%d, want v%d", got, w.marker)
				}
				source := table
				switch {
				case f.versioned:
					source = sidecar
				case f.pending:
					source = pending
				}
				if source != w.source {
					t.Errorf("frame came from %s, want %s", source, w.source)
				}
				if got := ctr.logicalReads.Load() - l0; got != 1 {
					t.Errorf("logical_reads moved by %d, want 1", got)
				}
				got := delta{
					physical:   ctr.physicalReads.Load() - p0,
					snapshot:   ctr.snapshotReads.Load() - r0,
					promotions: ctr.promotions.Load() - m0,
					admissions: ctr.admissions.Load() - a0,
				}
				if got != w.moved {
					t.Errorf("counters moved %+v, want %+v", got, w.moved)
				}
				fx.Unpin(f, false)

				switch st.stage {
				case written:
					bp.EndCapture(c)
					bp.AbortCapture(c)
				case prepared:
					bp.FinishPublish(tag)
				}
				before.Release()
				after.Release()
				if n := bp.PinnedFrames(); n != 0 {
					t.Errorf("PinnedFrames = %d", n)
				}
				if n := bp.VersionPages(); n != 0 {
					t.Errorf("VersionPages = %d", n)
				}
				if n := bp.ActiveSnapshots(); n != 0 {
					t.Errorf("ActiveSnapshots = %d", n)
				}
			})
		}
	}
}
