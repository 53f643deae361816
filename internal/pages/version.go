// MVCC page versioning: copy-on-write page versions and snapshot reads.
//
// The pool keeps, besides the current page table, a small per-shard
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
// A snapshot is just a tag S read from the commit clock. Page content
// tagged t is visible to S iff t <= S; Snapshot.Fetch resolves a page to
// the newest visible version — the current table frame when its tag
// qualifies, else the newest qualifying sidecar entry, else the disk
// image (whose tag is the newest commit the sidecar records against the
// page, or 0 when no retained chain mentions it — sound because
// published dirty frames are flushed before eviction, so disk always
// holds the newest published content at miss time).
//
// Version lifetime: a sidecar entry superseded by commit T is needed
// exactly by snapshots older than T. It is dropped once it is unpinned
// and every active snapshot is at or past T (or none is active). GC
// runs opportunistically: at publish, at snapshot release, on the last
// unpin of a versioned frame, and in DropCleanBuffers.
//
// Memory: pending and versioned frames live outside the page table and
// the LRU lists, so they do not consume table capacity — the pool can
// transiently exceed its frame budget by (pages dirtied by the one
// active write session) + (versions retained for live snapshots). Both
// are bounded: the engine is single-writer, and snapshots are
// query-scoped.
package pages

import "fmt"

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
// The caller must Release it exactly once.
func (bp *BufferPool) AcquireSnapshot() *Snapshot {
	bp.snapMu.Lock()
	tag := bp.snapClock.Load()
	bp.snapActive[tag]++
	if tag < bp.minSnap.Load() {
		bp.minSnap.Store(tag)
	}
	bp.snapMu.Unlock()
	return &Snapshot{bp: bp, tag: tag}
}

// Tag returns the snapshot's commit tag.
func (sn *Snapshot) Tag() uint64 { return sn.tag }

// Release deregisters the snapshot and retires any page versions only
// it was keeping alive. Idempotent is NOT guaranteed — callers own the
// single release (engine wrappers add idempotence where needed).
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	bp := sn.bp
	bp.snapMu.Lock()
	if n := bp.snapActive[sn.tag] - 1; n > 0 {
		bp.snapActive[sn.tag] = n
	} else {
		delete(bp.snapActive, sn.tag)
	}
	min := ^uint64(0)
	for t := range bp.snapActive {
		if t < min {
			min = t
		}
	}
	bp.minSnap.Store(min)
	bp.snapMu.Unlock()
	bp.retireVersions()
}

// Fetch resolves page id to the newest version visible at the snapshot's
// tag and pins it. The returned frame may be a shared sidecar version —
// callers must treat it as read-only and Unpin it as usual.
func (sn *Snapshot) Fetch(id PageID) (*Frame, error) {
	bp := sn.bp
	bp.stats.logicalReads.Add(1)
	s := bp.shardFor(id)
	s.mu.Lock()
	if f, ok := s.table[id]; ok {
		if !f.pending && f.verTag.Load() <= sn.tag {
			if f.lru != nil {
				s.listFor(f).Remove(f.lru)
				f.lru = nil
			}
			if f.tier == tierProbation && bp.slru.Load() {
				f.tier = tierProtected
				bp.stats.promotions.Add(1)
			}
			f.pins.Add(1)
			s.mu.Unlock()
			return f, nil
		}
		// Current content is pending or too new: fall through to the
		// version sidecar.
		if v := s.newestVisibleLocked(id, sn.tag); v != nil {
			v.pins.Add(1)
			bp.stats.snapshotReads.Add(1)
			s.mu.Unlock()
			return v, nil
		}
		s.mu.Unlock()
		// Unreachable while the GC rule holds (a pre-image superseded by
		// commit T is retained until every snapshot reaches T); kept as a
		// hard error rather than silent wrong data.
		return nil, fmt.Errorf("pages: snapshot %d has no visible version of page %d", sn.tag, id)
	}
	if v := s.newestVisibleLocked(id, sn.tag); v != nil {
		v.pins.Add(1)
		bp.stats.snapshotReads.Add(1)
		s.mu.Unlock()
		return v, nil
	}
	// Miss: the disk image is the newest published version; load it into
	// the shared page table exactly like a current-mode miss.
	f, err := s.victimLocked(bp)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	f.Page.ID = id
	if err := bp.disk.ReadPage(id, f.Page.Buf[:]); err != nil {
		s.releaseFrameLocked(f)
		s.mu.Unlock()
		return nil, err
	}
	bp.stats.physicalReads.Add(1)
	bp.stats.bytesRead.Add(PageSize)
	if err := f.Page.VerifyChecksum(); err != nil {
		s.releaseFrameLocked(f)
		s.mu.Unlock()
		return nil, err
	}
	f.pins.Store(1)
	f.dirty = false
	f.unlogged = false
	f.pending = false
	f.versioned = false
	f.tier = tierProbation
	f.pageLSN.Store(f.Page.LSN())
	tag := s.latestSupersedeLocked(id)
	f.verTag.Store(tag)
	bp.stats.admissions.Add(1)
	s.table[id] = f
	s.mu.Unlock()
	if tag > sn.tag {
		// Same unreachable-by-construction guard as above.
		bp.Unpin(f, false)
		return nil, fmt.Errorf("pages: snapshot %d has no visible version of page %d (disk at %d)", sn.tag, id, tag)
	}
	return f, nil
}

// Unpin releases a frame fetched through the snapshot. Snapshot reads
// never dirty pages; dirty=true panics via the pool's versioned-write
// guard.
func (sn *Snapshot) Unpin(f *Frame, dirty bool) { sn.bp.Unpin(f, dirty) }

// newestVisibleLocked returns the newest sidecar version of id whose tag
// is <= snapTag, or nil. Caller holds s.mu.
func (s *shard) newestVisibleLocked(id PageID, snapTag uint64) *Frame {
	vs := s.vers[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].verTag.Load() <= snapTag {
			return vs[i]
		}
	}
	return nil
}

// latestSupersedeLocked returns the newest commit tag the sidecar
// records against id — the tag of the content currently on disk when id
// is not cached — or 0 when no retained chain mentions the page. Caller
// holds s.mu.
func (s *shard) latestSupersedeLocked(id PageID) uint64 {
	var max uint64
	for _, v := range s.vers[id] {
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
	s := bp.shardFor(id)
	s.mu.Lock()
	old, cached := s.table[id]
	if cached && old.pending {
		old.pins.Add(1)
		s.mu.Unlock()
		return old, nil
	}
	if !cached {
		// Load the committed image first; it becomes the pre-image.
		f, err := s.victimLocked(bp)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		f.Page.ID = id
		if err := bp.disk.ReadPage(id, f.Page.Buf[:]); err != nil {
			s.releaseFrameLocked(f)
			s.mu.Unlock()
			return nil, err
		}
		bp.stats.physicalReads.Add(1)
		bp.stats.bytesRead.Add(PageSize)
		if err := f.Page.VerifyChecksum(); err != nil {
			s.releaseFrameLocked(f)
			s.mu.Unlock()
			return nil, err
		}
		f.pins.Store(0)
		f.dirty = false
		f.unlogged = false
		f.pending = false
		f.versioned = false
		f.tier = tierProbation
		f.pageLSN.Store(f.Page.LSN())
		f.verTag.Store(s.latestSupersedeLocked(id))
		bp.stats.admissions.Add(1)
		old = f
		// Not inserted into table or LRU: it goes straight to the sidecar
		// below, and the pending copy takes the table slot.
	} else if old.lru != nil {
		// Unhook the pre-image so the victim scan below cannot evict it
		// out from under us.
		s.listFor(old).Remove(old.lru)
		old.lru = nil
	}
	pend, err := s.victimLocked(bp)
	if err != nil {
		// Roll the pre-image back to where it came from.
		if !cached {
			s.releaseFrameLocked(old)
		} else if old.pins.Load() == 0 {
			old.lru = s.listFor(old).PushFront(old)
		}
		s.mu.Unlock()
		return nil, err
	}
	pend.Page = old.Page // full 8 kB copy, same ID
	pend.pins.Store(1)
	pend.dirty = old.dirty
	pend.unlogged = true
	pend.pending = true
	pend.versioned = false
	pend.tier = old.tier
	pend.pageLSN.Store(old.pageLSN.Load())
	pend.verTag.Store(old.verTag.Load())
	old.versioned = true
	old.supersededBy = 0
	s.vers[id] = append(s.vers[id], old)
	s.table[id] = pend
	bp.stats.cowCopies.Add(1)
	s.mu.Unlock()
	c.add(pend)
	c.addPre(pend, old)
	return pend, nil
}

// PreparePublish stamps every frame of an ended capture with the next
// commit tag and records that tag on the displaced pre-images, without
// advancing the commit clock: snapshots acquired while this runs still
// resolve to the pre-images (their tag exceeds the clock), so the
// commit stays invisible until FinishPublish. Returns the tag.
//
// The caller must have ended the capture (EndCapture) and, with a WAL
// attached, logged every frame (LogDirtyFrame) first.
func (bp *BufferPool) PreparePublish(c *Capture) uint64 {
	tag := bp.snapClock.Load() + 1
	for _, f := range c.Frames() {
		pre := c.preimage(f)
		s := f.shard
		s.mu.Lock()
		f.verTag.Store(tag)
		f.pending = false
		if bp.wal == nil {
			// No durability protocol: published frames are immediately
			// flushable (the WAL gate otherwise clears unlogged in
			// LogDirtyFrame).
			f.unlogged = false
		}
		if f.pins.Load() == 0 && f.lru == nil {
			f.lru = s.listFor(f).PushFront(f)
			if f.tier == tierProtected {
				s.enforceProtCapLocked()
			}
		}
		if pre != nil {
			pre.supersededBy = tag
		}
		s.dropVersionsLocked(bp, f.Page.ID)
		s.mu.Unlock()
	}
	return tag
}

// FinishPublish advances the commit clock to the prepared tag, making
// the commit visible to every snapshot acquired from now on, then
// retires the pre-images the publish window was protecting (they only
// become droppable once the clock passes their superseding tag).
//
// The tick takes snapMu so it cannot land between AcquireSnapshot
// reading the old clock and registering that tag in minSnap: otherwise
// the retirement below would see no snapshot at the old tag and drop
// the very pre-images that snapshot is about to resolve to.
func (bp *BufferPool) FinishPublish(tag uint64) {
	bp.snapMu.Lock()
	bp.snapClock.Store(tag)
	bp.snapMu.Unlock()
	bp.retireVersions()
}

// AbortCapture discards every pending frame of an ended capture and
// restores the displaced pre-images into the page table, as if the
// write session never ran. Frames created by the session (no pre-image)
// vanish from the cache; their disk pages leak until the file is next
// compacted, which matches the redo-only WAL's contract (an aborted
// statement logs nothing, so recovery also never resurrects them).
func (bp *BufferPool) AbortCapture(c *Capture) {
	for _, f := range c.Frames() {
		pre := c.preimage(f)
		s := f.shard
		s.mu.Lock()
		if !f.pending {
			// Defensive: only pending frames are discardable. A published
			// or never-captured frame stays untouched.
			s.mu.Unlock()
			continue
		}
		id := f.Page.ID
		delete(s.table, id)
		if pre != nil {
			// Remove the pre-image's sidecar entry and put it back as the
			// current frame.
			vs := s.vers[id]
			for i := len(vs) - 1; i >= 0; i-- {
				if vs[i] == pre {
					s.vers[id] = append(vs[:i], vs[i+1:]...)
					break
				}
			}
			if len(s.vers[id]) == 0 {
				delete(s.vers, id)
			}
			pre.versioned = false
			pre.supersededBy = 0
			s.table[id] = pre
			if pre.pins.Load() == 0 && pre.lru == nil {
				pre.lru = s.listFor(pre).PushFront(pre)
				if pre.tier == tierProtected {
					s.enforceProtCapLocked()
				}
			}
		}
		// Discard the pending copy. A nonzero pin count here would be a
		// caller bug (the session must unpin before aborting); the frame
		// is then orphaned rather than recycled so the dangling pointer
		// cannot alias a future page.
		f.pending = false
		f.dirty = false
		f.unlogged = false
		f.pageLSN.Store(0)
		f.verTag.Store(0)
		if f.pins.Load() == 0 {
			s.releaseFrameLocked(f)
		}
		s.mu.Unlock()
	}
}

// droppableLocked reports whether a sidecar version can be retired: its
// superseding commit is published and no active snapshot predates it.
// Caller holds the owning shard's mutex.
func (bp *BufferPool) droppableLocked(f *Frame) bool {
	if f.supersededBy == 0 || f.pins.Load() != 0 {
		return false
	}
	if f.supersededBy > bp.snapClock.Load() {
		// The superseding commit is still between PreparePublish and
		// FinishPublish: a snapshot acquired right now (at the old
		// clock) resolves to THIS version, so it must survive until the
		// clock passes the tag.
		return false
	}
	return bp.minSnap.Load() >= f.supersededBy // ^0 when no snapshot is active
}

// dropVersionsLocked retires every droppable sidecar version of id,
// recycling their frames. Caller holds s.mu.
func (s *shard) dropVersionsLocked(bp *BufferPool, id PageID) {
	vs, ok := s.vers[id]
	if !ok {
		return
	}
	kept := vs[:0]
	for _, f := range vs {
		if bp.droppableLocked(f) {
			f.versioned = false
			f.dirty = false
			f.unlogged = false
			f.supersededBy = 0
			f.pageLSN.Store(0)
			f.verTag.Store(0)
			s.releaseFrameLocked(f)
			bp.stats.versionsRetired.Add(1)
			continue
		}
		kept = append(kept, f)
	}
	if len(kept) == 0 {
		delete(s.vers, id)
	} else {
		s.vers[id] = kept
	}
}

// retireVersions sweeps every shard's sidecar for droppable versions.
func (bp *BufferPool) retireVersions() {
	for _, s := range bp.shards {
		s.mu.Lock()
		for id := range s.vers {
			s.dropVersionsLocked(bp, id)
		}
		s.mu.Unlock()
	}
}

// VersionPages returns the number of page versions currently retained
// in the sidecar — the version-store footprint tests assert drains to
// zero once all snapshots are released.
func (bp *BufferPool) VersionPages() int {
	n := 0
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, vs := range s.vers {
			n += len(vs)
		}
		s.mu.Unlock()
	}
	return n
}

// ActiveSnapshots returns how many snapshots are currently registered.
func (bp *BufferPool) ActiveSnapshots() int {
	bp.snapMu.Lock()
	defer bp.snapMu.Unlock()
	n := 0
	for _, c := range bp.snapActive {
		n += c
	}
	return n
}

// CommitTag returns the current commit clock value (the tag the next
// AcquireSnapshot would observe).
func (bp *BufferPool) CommitTag() uint64 { return bp.snapClock.Load() }

// MinSnapshotTag returns the smallest tag among active snapshots, or
// ^uint64(0) when none is active — the horizon below which superseded
// versions (and the engine's per-table catalog versions) are dead.
func (bp *BufferPool) MinSnapshotTag() uint64 { return bp.minSnap.Load() }
