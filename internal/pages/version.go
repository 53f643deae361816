// MVCC page versioning: copy-on-write page versions and snapshot reads.
//
// The pool keeps, besides the current page table, a small
// *version sidecar*: superseded pre-image frames keyed by PageID. A
// write session never mutates a committed frame in place — FetchForWrite
// moves the committed frame into the sidecar and hands the session a
// private ("pending") copy, which replaces it in the page table. At
// commit the session *publishes*: every pending frame is stamped with
// the next commit tag, the displaced pre-images record which tag
// superseded them, and the commit clock advances — one atomic flip from
// every reader's point of view. On error the session *aborts*: pending
// frames are discarded and the pre-images are restored, so nothing
// uncommitted can ever be read, flushed, or logged.
//
// A snapshot is just a tag S read from the commit clock, and current mode
// (the plain pool's Fetch, the write session) is the tag viewCurrent that
// no commit ever carries. One fetch serves both: a view V reads the
// page-table frame when its tag is <= V (a pending frame is tagged
// viewCurrent, so only current mode sees it), else the sidecar entry
// with verTag <= V < supersededBy, else the disk image (whose tag is the
// newest commit the sidecar records against the page, or 0 when no
// retained chain mentions it — sound because published dirty frames are
// flushed before eviction, so disk always holds the newest published
// content at miss time).
//
// Frame lifecycle. A frame is in exactly one state, and each transition
// is written once:
//
//	free → cached       loadLocked (miss), NewPage
//	free → pending      FetchForWrite (the copy), NewPage under a capture
//	cached → versioned  FetchForWrite (the displaced pre-image)
//	pending → cached    PreparePublish
//	versioned → cached  AbortCapture (the pre-image restored)
//	cached → free       victimLocked (eviction), DropCleanBuffers
//	pending → free      AbortCapture
//	versioned → free    dropVersionsLocked (retirement)
//
// Every "→ free" clears the frame through Frame.reset; while cached,
// touchLocked pins a frame off the LRU on a hit and relinkLocked puts it
// back on its last unpin.
//
// Version lifetime: a sidecar entry holding the version committed at
// verTag and superseded by commit T is read by exactly the snapshots
// whose tag t has verTag <= t < T. It is retired as soon as it is
// unpinned, T is published, and no live snapshot tag falls in that
// interval; the live tags are the pool's multiset (snapActive), guarded
// by the pool's one mutex like the sidecar itself. A publish re-checks
// only the chains of the pages it wrote, after the clock tick; a release
// re-checks the sidecar only when the last snapshot at its tag leaves;
// the last unpin of a version and DropCleanBuffers re-check too. So a
// commit costs O(pages written) however long a snapshot is held.
//
// Memory: pending and versioned frames live outside the page table and
// the LRU lists, so they do not consume table capacity — the pool can
// transiently exceed its frame budget by (pages dirtied by the one
// active write session) + (versions retained for live snapshots). The
// second term is bounded by the rule above: a page keeps at most one
// version per distinct live snapshot tag (plus the pre-image of the
// open write session), so one snapshot held across any number of
// commits costs at most one frame per page written since it opened.
package pages

import "slices"

// Fetcher is the read-side page access interface: the plain pool
// ("current mode" — a write session sees its own pending pages) and
// Snapshot (committed-as-of-S visibility) both implement it, so B+tree
// descents and blob chunk walks can run against either.
type Fetcher interface {
	Fetch(id PageID) (*Frame, error)
	Unpin(f *Frame, dirty bool)
}

var _ Fetcher = (*BufferPool)(nil)
var _ Fetcher = (*Snapshot)(nil)

// Snapshot is a read view of the database as of a commit tag: every
// Fetch resolves to the newest version published at or before the tag,
// never seeing uncommitted or later state. Snapshots are cheap (no
// page copying on the read side), safe for concurrent use by parallel
// scan workers, and must be Released so the version store can shrink.
type Snapshot struct {
	bp       *BufferPool
	tag      uint64
	released bool
}

// AcquireSnapshot registers a read view at the current commit clock.
// It returns the view by value, for its owner to hold without an
// allocation of its own; the owner must not copy it after, and must
// Release it exactly once.
func (bp *BufferPool) AcquireSnapshot() Snapshot {
	bp.mu.Lock()
	tag := bp.snapClock.Load()
	bp.snapActive = append(bp.snapActive, tag) // the clock only grows: still sorted
	bp.mu.Unlock()
	return Snapshot{bp: bp, tag: tag}
}

// Tag returns the snapshot's commit tag.
func (sn *Snapshot) Tag() uint64 { return sn.tag }

// Release deregisters the snapshot. When it was the last one at its
// tag, the versions only that tag read are retired. Idempotent is NOT
// guaranteed — callers own the single release (engine wrappers add
// idempotence where needed).
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	bp := sn.bp
	bp.mu.Lock()
	defer bp.mu.Unlock()
	i, _ := slices.BinarySearch(bp.snapActive, sn.tag)
	bp.snapActive = slices.Delete(bp.snapActive, i, i+1)
	if i < len(bp.snapActive) && bp.snapActive[i] == sn.tag {
		return // another snapshot still reads at this tag
	}
	bp.retireVersionsLocked()
}

// Fetch resolves page id to the newest version visible at the snapshot's
// tag and pins it. The returned frame may be a shared sidecar version —
// callers must treat it as read-only and Unpin it as usual.
func (sn *Snapshot) Fetch(id PageID) (*Frame, error) { return sn.bp.fetch(id, sn.tag) }

// Unpin releases a frame fetched through the snapshot. Snapshot reads
// never dirty pages; dirty=true panics via the pool's versioned-write
// guard.
func (sn *Snapshot) Unpin(f *Frame, dirty bool) { sn.bp.Unpin(f, dirty) }

// versionAtLocked returns the sidecar version of id that view reads —
// the one with verTag <= view < supersededBy — or nil. Caller holds bp.mu.
func (bp *BufferPool) versionAtLocked(id PageID, view uint64) *Frame {
	vs := bp.vers[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if v := vs[i]; v.verTag <= view && view < v.supersededBy {
			return v
		}
	}
	return nil
}

// latestSupersedeLocked returns the newest commit tag the sidecar
// records against id — the tag of the content currently on disk when id
// is not cached — or 0 when no retained chain mentions the page. Caller
// holds bp.mu.
func (bp *BufferPool) latestSupersedeLocked(id PageID) uint64 {
	var max uint64
	for _, v := range bp.vers[id] {
		if t := v.supersededBy; t > max {
			max = t
		}
	}
	return max
}

// FetchForWrite pins page id for mutation inside the active write
// session. With no capture active it is identical to Fetch (the
// engine's non-durable unit-test paths keep their in-place semantics).
// Under a capture it returns the session's private pending copy,
// creating it copy-on-write on first touch: the committed frame moves
// into the version sidecar (old snapshots keep reading it) and a fresh
// frame with identical contents replaces it in the page table.
func (bp *BufferPool) FetchForWrite(id PageID) (*Frame, error) {
	c := bp.capture.Load()
	if c == nil {
		return bp.Fetch(id)
	}
	bp.stats.logicalReads.Add(1)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	old := bp.lookupLocked(id)
	if old == nil {
		// Load the committed image first; it becomes the pre-image.
		var err error
		if old, err = bp.loadLocked(id); err != nil {
			return nil, err
		}
		old.pins--
	} else if old.pending {
		old.pins++
		return old, nil
	}
	// The pre-image leaves the LRU and the table before the victim scan,
	// so the scan cannot evict it and the pending copy takes its slot.
	bp.unlinkLocked(old)
	delete(bp.table, id)
	pend, err := bp.victimLocked()
	if err != nil {
		bp.table[id] = old
		bp.relinkLocked(old)
		return nil, err
	}
	// copy() calls runtime.memmove; assigning the whole Page compiles to
	// REP MOVSQ, several times slower for 8 kB.
	pend.Page.ID = id
	copy(pend.Page.Buf[:], old.Page.Buf[:])
	pend.pins = 1
	pend.dirty = old.dirty
	pend.unlogged = true
	pend.pending = true
	pend.tier = old.tier
	pend.pageLSN.Store(old.pageLSN.Load())
	pend.verTag = viewCurrent
	pend.pre = old
	old.versioned = true
	old.supersededBy = viewCurrent
	bp.pushVersionLocked(id, old)
	bp.table[id] = pend
	bp.stats.cowCopies.Add(1)
	c.add(pend)
	return pend, nil
}

// PreparePublish stamps every frame of an ended capture with the next
// commit tag and records that tag on the displaced pre-images, without
// advancing the commit clock: snapshots acquired while this runs still
// resolve to the pre-images (their tag exceeds the clock), so the
// commit stays invisible until FinishPublish. It retires nothing (no
// version can become unreadable before the tick) and notes the pages
// whose pre-images it superseded for FinishPublish. Returns the tag.
//
// The caller must have ended the capture (EndCapture) and, with a WAL
// attached, logged every frame (LogDirtyFrame) first.
func (bp *BufferPool) PreparePublish(c *Capture) uint64 {
	tag := bp.snapClock.Load() + 1
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.published = bp.published[:0]
	for _, f := range c.recorded() {
		f.verTag = tag
		f.pending = false
		if bp.wal == nil {
			// No durability protocol: published frames are immediately
			// flushable (the WAL gate otherwise clears unlogged in
			// LogDirtyFrame).
			f.unlogged = false
		}
		bp.relinkLocked(f)
		if f.pre != nil {
			f.pre.supersededBy = tag
			f.pre = nil
			bp.published = append(bp.published, f.Page.ID)
		}
	}
	bp.recycleCapture(c)
	return tag
}

// FinishPublish advances the commit clock to the prepared tag, making
// the commit visible to every snapshot acquired from now on, then
// re-checks the version chains of the pages the commit wrote: their
// pre-images are the only versions the tick can make unreadable.
//
// The tick takes bp.mu so it cannot land between AcquireSnapshot
// reading the old clock and registering that tag: otherwise the
// retirement below would see no snapshot at the old tag and drop the
// very pre-images that snapshot is about to resolve to.
func (bp *BufferPool) FinishPublish(tag uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.snapClock.Store(tag)
	for _, id := range bp.published {
		bp.dropVersionsLocked(id)
	}
	bp.published = bp.published[:0]
}

// AbortCapture discards every pending frame of an ended capture and
// restores the displaced pre-images into the page table, as if the
// write session never ran. Frames created by the session (no pre-image)
// vanish from the cache; their disk pages leak until the file is next
// compacted, which matches the redo-only WAL's contract (an aborted
// statement logs nothing, so recovery also never resurrects them).
func (bp *BufferPool) AbortCapture(c *Capture) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range c.recorded() {
		if !f.pending {
			// Defensive: only pending frames are discardable. A published
			// or never-captured frame stays untouched.
			continue
		}
		id := f.Page.ID
		delete(bp.table, id)
		if pre := f.pre; pre != nil {
			f.pre = nil
			// Remove the pre-image's sidecar entry and put it back as the
			// current frame.
			vs := bp.vers[id]
			for i := len(vs) - 1; i >= 0; i-- {
				if vs[i] == pre {
					bp.vers[id] = append(vs[:i], vs[i+1:]...)
					break
				}
			}
			if vs := bp.vers[id]; len(vs) == 0 {
				bp.forgetVersionsLocked(id, vs)
			}
			pre.versioned = false
			pre.supersededBy = 0
			bp.table[id] = pre
			bp.relinkLocked(pre)
		}
		// Discard the pending copy. A nonzero pin count here would be a
		// caller bug (the session must unpin before aborting); the frame
		// is then orphaned, still marked pending so a late Unpin cannot
		// put it on the LRU, rather than recycled so the dangling pointer
		// cannot alias a future page.
		if f.pins == 0 {
			bp.freeLocked(f)
		}
	}
	bp.recycleCapture(c)
}

// retainedLocked reports whether sidecar version f must stay: it is
// pinned, its superseding commit is not visible yet, or a live snapshot
// reads it (verTag <= t < supersededBy). Caller holds bp.mu.
func (bp *BufferPool) retainedLocked(f *Frame) bool {
	if f.pins != 0 || f.supersededBy > bp.snapClock.Load() {
		// Unpublished (viewCurrent), or between PreparePublish and
		// FinishPublish: a snapshot acquired right now, at the old clock,
		// resolves to this version.
		return true
	}
	i, _ := slices.BinarySearch(bp.snapActive, f.verTag)
	return i < len(bp.snapActive) && bp.snapActive[i] < f.supersededBy
}

// dropVersionsLocked retires every sidecar version of id no one can
// read, recycling their frames. Caller holds bp.mu.
func (bp *BufferPool) dropVersionsLocked(id PageID) {
	vs, ok := bp.vers[id]
	if !ok {
		return
	}
	kept := vs[:0]
	for _, f := range vs {
		if !bp.retainedLocked(f) {
			bp.freeLocked(f)
			bp.stats.versionsRetired.Add(1)
			continue
		}
		kept = append(kept, f)
	}
	if len(kept) == 0 {
		bp.forgetVersionsLocked(id, kept)
	} else {
		bp.vers[id] = kept
	}
}

// retireVersionsLocked sweeps the whole sidecar; an empty one costs
// nothing. Caller holds bp.mu.
func (bp *BufferPool) retireVersionsLocked() {
	for id := range bp.vers {
		bp.dropVersionsLocked(id)
	}
}

// VersionPages returns the number of page versions currently retained
// in the sidecar — the version-store footprint tests assert drains to
// zero once all snapshots are released.
func (bp *BufferPool) VersionPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, vs := range bp.vers {
		n += len(vs)
	}
	return n
}

// ActiveSnapshots returns how many snapshots are currently registered.
func (bp *BufferPool) ActiveSnapshots() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.snapActive)
}
