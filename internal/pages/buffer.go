package pages

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlarray/internal/obs"
)

// counters are the pool's I/O counters: obs handles (atomics), so a
// hit never serializes on a statistics lock. RegisterMetrics attaches
// them to the registry, the one place to read them; it reads the live
// atomics, so the increment sites pay nothing for it.
type counters struct {
	logicalReads    obs.Counter // every fetch
	physicalReads   obs.Counter // pages read from the disk manager
	bytesRead       obs.Counter
	writes          obs.Counter
	bytesWritten    obs.Counter
	evictions       obs.Counter
	admissions      obs.Counter // first-touch pages entering probation
	promotions      obs.Counter // probationary pages re-referenced into protected
	scanEvictions   obs.Counter // evictions from probation: a scan's one-touch wake
	cowCopies       obs.Counter // copy-on-write duplications (FetchForWrite)
	snapshotReads   obs.Counter // snapshot fetches served from the version sidecar
	versionsRetired obs.Counter // sidecar entries no live snapshot can still need
}

// Frame is a pinned page in the buffer pool. Callers must Unpin every
// fetched frame; the Page must not be touched after unpinning. Every
// field but Page and pageLSN is guarded by the pool's mutex.
type Frame struct {
	Page Page
	pins int32
	// loading marks a frame whose page a miss is reading from disk: it
	// sits in the page table, pinned by the loader, while the pool's
	// mutex is released for the read. A fetch that finds it waits on
	// BufferPool.loaded and looks the page up again.
	loading bool
	dirty   bool
	link    lruLink // place on its tier's segment, zero when on none
	tier    int8    // SLRU segment (probation/protected)
	// pageLSN is the WAL LSN of the record holding the frame's latest
	// logged image. The flush gate compares it against the log's durable
	// LSN: a dirty frame may only reach the database file once its log
	// record is durable (WAL-before-flush). Atomic so PageLSN can read it
	// without the pool's mutex.
	pageLSN atomic.Uint64
	// unlogged marks a frame dirtied by the active write session whose
	// image has not been appended to the WAL yet. Such a frame must not
	// be flushed or evicted under any circumstances — its changes exist
	// nowhere but in memory.
	unlogged bool
	// verTag is the commit tag of the version this frame holds: the frame
	// is visible to a view V exactly when verTag <= V. Tag 0 is "older than
	// every snapshot"; a pending frame carries viewCurrent, the one tag no
	// snapshot reaches, until publish stamps the real one.
	verTag uint64
	// pending marks the private copy-on-write frame of the active write
	// session: invisible to every snapshot, never on an LRU list, never
	// flushed or evicted (publish or abort decides its fate).
	pending bool
	// versioned marks a superseded pre-image living in the pool's version
	// sidecar rather than the page table: readable by old snapshots,
	// never re-enters the LRU, never flushed (its content is stale by
	// definition).
	versioned bool
	// supersededBy is the commit tag of the version that replaced this
	// sidecar entry — viewCurrent while the replacing session is still
	// uncommitted. The entry is what a view V reads exactly when
	// verTag <= V < supersededBy, and is retired once no live snapshot's
	// tag falls in that interval.
	supersededBy uint64
	// pre is the committed pre-image a pending copy-on-write frame
	// displaced into the sidecar (nil for a page the session created).
	// Publish stamps its supersede tag through it and abort puts it back
	// in the page table; both clear it, so no frame points at one that
	// has since been recycled.
	pre *Frame
	// capStamp is the id of the capture that recorded the frame: a
	// frame is in capture c exactly when capStamp == c.id, so recording
	// it once needs no set.
	capStamp uint64
}

// reset returns a frame to the free state. Every path out of the cache
// (eviction, failed load, abort, version retirement, DropCleanBuffers)
// goes through here, so a frame taken from victimLocked carries nothing
// of the page it last held. Caller holds the pool's mutex and the frame
// is unpinned and off the LRU lists.
func (f *Frame) reset() {
	f.dirty, f.unlogged, f.pending, f.versioned, f.loading = false, false, false, false, false
	f.link = lruLink{}
	f.tier = tierProbation
	f.supersededBy = 0
	f.pre = nil
	f.capStamp = 0
	f.pageLSN.Store(0)
	f.verTag = 0
}

// PageLSN returns the LSN of the frame's latest logged image (0 if the
// frame was never logged).
func (f *Frame) PageLSN() uint64 { return f.pageLSN.Load() }

// WAL is the flush gate the buffer pool consults before writing a
// dirty frame to the database file. Implemented by *wal.Log; declared
// here so pages does not depend on the wal package.
type WAL interface {
	// DurableLSN returns the LSN below which every log record is
	// durable.
	DurableLSN() uint64
	// Sync makes all appended records durable (raising DurableLSN).
	Sync() error
}

// Capture collects the frames a write session dirties, so the session
// can log their after-images at commit. Only one capture may be active
// per pool; the engine's database-level write lock enforces that. The
// session's other bookkeeping lives on the frames themselves: each
// recorded frame carries the capture's id (capStamp) and its displaced
// pre-image (pre), so a capture holds no map.
//
// The pool reuses one Capture object: PreparePublish and AbortCapture
// hand it back and the next BeginCapture restarts it under a fresh id,
// so a write session allocates no capture. A caller must not use a
// capture after publishing or aborting it.
type Capture struct {
	id     uint64 // never reused within a pool, so a stale stamp cannot match
	frames []*Frame
	// first backs frames up to its length, so a session that writes a
	// few pages allocates no slice for them.
	first [4]*Frame
}

// add records f once, in first-dirtied order. Caller holds the pool's
// mutex, which guards the stamp and the list.
func (c *Capture) add(f *Frame) {
	if f.capStamp == c.id {
		return
	}
	f.capStamp = c.id
	c.frames = append(c.frames, f)
}

// recorded returns the captured frames of an ended capture. Once
// EndCapture has detached the capture, no add can reach it, and every
// add ran under the pool's mutex before the writer ended the capture.
// The slice is the capture's own: EndCapture, PreparePublish and
// AbortCapture share it, callers must not modify it, and the next
// session's capture reuses it.
func (c *Capture) recorded() []*Frame { return c.frames }

// Frame SLRU tiers. First-touch frames enter probation; a re-reference
// promotes to protected. Eviction prefers probation, so a one-shot scan
// churns its own tier instead of flushing the hot set.
const (
	tierProbation int8 = iota
	tierProtected
)

// lruLink threads a frame onto an SLRU segment from inside the Frame,
// so linking allocates nothing.
type lruLink struct {
	prev, next *lruLink
	frame      *Frame // nil for a segment's sentinel
}

// segment is one SLRU segment: a circular list around a sentinel, whose
// next is the most recently used frame and prev the least.
type segment struct {
	root lruLink
	n    int
}

func (l *segment) init() { l.root.prev, l.root.next, l.n = &l.root, &l.root, 0 }

func (l *segment) pushFront(f *Frame) {
	e := &f.link
	e.frame, e.prev, e.next = f, &l.root, l.root.next
	e.next.prev, l.root.next = e, e
	l.n++
}

func (l *segment) remove(f *Frame) {
	e := &f.link
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// pushVersionLocked appends a displaced pre-image to id's sidecar
// chain. Caller holds bp.mu.
func (bp *BufferPool) pushVersionLocked(id PageID, f *Frame) {
	vs, ok := bp.vers[id]
	if !ok {
		vs, bp.spareChain = bp.spareChain, nil
	}
	bp.vers[id] = append(vs, f)
}

// forgetVersionsLocked deletes id's emptied sidecar chain vs, keeping
// its backing array for the next push. Caller holds bp.mu.
func (bp *BufferPool) forgetVersionsLocked(id PageID, vs []*Frame) {
	delete(bp.vers, id)
	bp.spareChain = vs[:0]
}

// unlinkLocked takes a frame off its LRU list (no-op when it is on
// none), so the victim scan cannot reach it. Caller holds bp.mu.
func (bp *BufferPool) unlinkLocked(f *Frame) {
	if f.link.next != nil {
		bp.lru[f.tier].remove(f)
	}
}

// relinkLocked puts an unpinned cached frame back on its tier's LRU list
// at the MRU end and demotes protected-tail frames into probation until
// the protected segment fits its cap, so it cannot monopolize the pool.
// Pending and versioned frames stay off the lists: a pending frame's
// fate is decided by publish/abort, and a superseded version must never
// become an eviction victim (flushing its stale content would clobber
// newer disk state). Caller holds bp.mu.
func (bp *BufferPool) relinkLocked(f *Frame) {
	if f.pins != 0 || f.link.next != nil || f.pending || f.versioned {
		return
	}
	bp.lru[f.tier].pushFront(f)
	for prot := &bp.lru[tierProtected]; prot.n > bp.protCap; {
		d := prot.root.prev.frame
		prot.remove(d)
		d.tier = tierProbation
		bp.lru[tierProbation].pushFront(d)
	}
}

// touchLocked pins a cached frame for a hit: off the LRU while pinned,
// and a probationary frame is promoted into the protected segment (the
// SLRU admission rule — one touch is not enough to displace the hot
// set, two are). Caller holds bp.mu.
func (bp *BufferPool) touchLocked(f *Frame) {
	bp.unlinkLocked(f)
	if f.tier == tierProbation {
		f.tier = tierProtected
		bp.stats.promotions.Add(1)
	}
	f.pins++
}

// freeLocked recycles an unpinned frame that is in neither the page
// table, the sidecar nor an LRU list. Caller holds bp.mu.
func (bp *BufferPool) freeLocked(f *Frame) {
	f.reset()
	bp.free = append(bp.free, f)
}

// BufferPool caches pages over a DiskManager with segmented-LRU
// replacement. It is safe for concurrent use: one mutex guards the page
// table, the LRU lists, the free list, the version sidecar and the live
// snapshot tags, and a miss releases it while it reads the page from
// disk, so a fetch that hits never waits for another's I/O.
type BufferPool struct {
	disk    DiskManager
	cap     int
	protCap int // max unpinned frames the protected segment may hold
	stats   counters
	wal     WAL // flush gate; nil = no durability protocol
	capture atomic.Pointer[Capture]
	spare   atomic.Pointer[Capture] // a published or aborted capture, for BeginCapture to reuse
	capSeq  atomic.Uint64           // last Capture.id handed out
	// snapClock is the synthetic commit clock: the tag of the newest
	// published commit. AcquireSnapshot reads it; FinishPublish advances
	// it. It starts at 1 so content tagged 0 ("pre-history": pages loaded
	// from disk with an empty sidecar, recovered state) is visible to
	// every snapshot.
	snapClock atomic.Uint64

	// mu guards every field below and the frames' bookkeeping. It ranks
	// below the engine's writeMu and pubMu.
	mu sync.Mutex
	// loaded is signalled (on mu) whenever a miss finishes reading a
	// page, successfully or not, to wake the fetches waiting on it.
	loaded sync.Cond
	table  map[PageID]*Frame
	lru    [2]segment // indexed by tier: probation, protected
	free   []*Frame   // recycled frames (DropCleanBuffers feeds this)
	// vers is the page-version sidecar: superseded pre-image frames per
	// page, oldest first (ascending verTag). Entries live outside the
	// page table and the LRU lists; they are dropped once no active
	// snapshot can read them (see retainedLocked).
	vers map[PageID][]*Frame
	// spareChain is the backing array of the last emptied sidecar chain
	// (nil when none), for the next page that gains a version: a commit
	// no snapshot reads empties the chain of the page it wrote, and the
	// next session pushes one again.
	spareChain []*Frame
	snapActive []uint64 // live snapshot tags, one per snapshot, ascending
	// published lists the pages whose pre-images the prepared commit
	// superseded, for FinishPublish to re-check. The pool has one
	// capture at a time, so one publisher owns it.
	published []PageID
}

// NewBufferPool creates a pool holding up to capacity pages.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		disk:    disk,
		cap:     capacity,
		protCap: capacity * 3 / 4,
		table:   make(map[PageID]*Frame, capacity),
		vers:    make(map[PageID][]*Frame),
	}
	bp.loaded.L = &bp.mu
	bp.snapClock.Store(1)
	bp.lru[tierProbation].init()
	bp.lru[tierProtected].init()
	return bp
}

// SetWAL attaches the write-ahead-log flush gate. Once set, a dirty
// frame is written to the database file only when its pageLSN is below
// the log's durable LSN, and frames dirtied by an active (uncommitted)
// write session are never flushed at all.
func (bp *BufferPool) SetWAL(w WAL) { bp.wal = w }

// BeginCapture starts recording which frames the caller's writes dirty.
// Exactly one capture may be active; the engine's write lock serializes
// sessions, so a second concurrent capture is a bug.
func (bp *BufferPool) BeginCapture() (*Capture, error) {
	c := bp.spare.Swap(nil)
	if c == nil {
		c = new(Capture)
		c.frames = c.first[:0]
	}
	c.id = bp.capSeq.Add(1)
	c.frames = c.frames[:0]
	if !bp.capture.CompareAndSwap(nil, c) {
		bp.spare.Store(c)
		return nil, fmt.Errorf("pages: a write capture is already active")
	}
	return c, nil
}

// recycleCapture hands a capture whose frames publish or abort has
// consumed back to BeginCapture. One still active (ended by no
// EndCapture) is left alone, so a new session cannot restart it.
func (bp *BufferPool) recycleCapture(c *Capture) {
	if bp.capture.Load() != c {
		bp.spare.Store(c)
	}
}

// EndCapture stops recording and returns the dirtied frames. The caller
// must then log each frame (LogDirtyFrame) — until it does, the frames
// stay unflushable.
func (bp *BufferPool) EndCapture(c *Capture) []*Frame {
	bp.capture.CompareAndSwap(c, nil)
	return c.recorded()
}

// LogDirtyFrame locks the pool and hands the frame's page to fn, which
// must append the page image to the WAL and return the assigned LSN.
// On success the frame's pageLSN advances and its unlogged mark clears,
// making it flushable once the log syncs. fn runs under the pool's
// mutex: it may stamp the page header and read the buffer, but must not
// touch the pool.
func (bp *BufferPool) LogDirtyFrame(f *Frame, fn func(p *Page) (uint64, error)) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if !f.dirty {
		f.unlogged = false
		return nil
	}
	lsn, err := fn(&f.Page)
	if err != nil {
		return err
	}
	f.pageLSN.Store(lsn)
	f.unlogged = false
	return nil
}

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// RegisterMetrics attaches the pool's I/O counters to reg under the
// "pages." prefix, plus a computed pinned-frames gauge. Several pools
// may attach to one registry (partition members); the registry sums
// same-named counters on read.
func (bp *BufferPool) RegisterMetrics(reg *obs.Registry) {
	c := &bp.stats
	reg.Attach("pages.logical_reads", &c.logicalReads)
	reg.Attach("pages.physical_reads", &c.physicalReads)
	reg.Attach("pages.bytes_read", &c.bytesRead)
	reg.Attach("pages.writes", &c.writes)
	reg.Attach("pages.bytes_written", &c.bytesWritten)
	reg.Attach("pages.evictions", &c.evictions)
	reg.Attach("pages.admissions", &c.admissions)
	reg.Attach("pages.promotions", &c.promotions)
	reg.Attach("pages.scan_evictions", &c.scanEvictions)
	reg.Attach("pages.cow_copies", &c.cowCopies)
	reg.Attach("pages.snapshot_reads", &c.snapshotReads)
	reg.Attach("pages.versions_retired", &c.versionsRetired)
	reg.Func("pages.pinned_frames", func() uint64 { return uint64(bp.PinnedFrames()) })
}

// LogicalReads returns pages.logical_reads of this pool alone; a
// registry sums every pool attached to it. EXPLAIN ANALYZE samples it.
func (bp *BufferPool) LogicalReads() uint64 { return bp.stats.logicalReads.Load() }

// viewCurrent is the visibility tag of current mode — the plain pool's
// Fetch and the write session. No commit ever carries it, so it is the
// one view that sees pending frames (tagged viewCurrent until publish)
// and never resolves to a superseded sidecar version.
const viewCurrent = ^uint64(0)

// Fetch pins page id into the pool, reading it from disk on a miss.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) { return bp.fetch(id, viewCurrent) }

// fetch is the pool's one read-side page fetch: it pins the version of
// page id that view reads. That is the page-table frame when its tag is
// at or below view, else the sidecar version whose [verTag, supersededBy)
// interval holds view, else — the page is not cached and no retained
// version covers view — the disk image, which loadLocked brings into the
// shared page table. A page another fetch is still reading is waited
// for, then looked up again.
func (bp *BufferPool) fetch(id PageID, view uint64) (*Frame, error) {
	bp.stats.logicalReads.Add(1)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f := bp.lookupLocked(id)
	if f != nil && f.verTag <= view {
		bp.touchLocked(f)
		return f, nil
	}
	if v := bp.versionAtLocked(id, view); v != nil {
		v.pins++
		bp.stats.snapshotReads.Add(1)
		return v, nil
	}
	if f == nil {
		var err error
		if f, err = bp.loadLocked(id); err != nil {
			return nil, err
		}
		if f.verTag <= view {
			return f, nil
		}
		f.pins--
		bp.relinkLocked(f)
	}
	// Unreachable while the retention rule holds (a version stays while
	// a live snapshot's tag falls in its interval); kept as a hard error
	// rather than silent wrong data.
	return nil, fmt.Errorf("pages: snapshot %d has no visible version of page %d (newest is %d)", view, id, f.verTag)
}

// lookupLocked returns id's page-table frame, or nil, once no miss is
// reading it: a loading frame is waited for (the wait releases bp.mu)
// and the table read again, since a failed load leaves the page out.
// Caller holds bp.mu.
func (bp *BufferPool) lookupLocked(id PageID) *Frame {
	f := bp.table[id]
	for f != nil && f.loading {
		bp.loaded.Wait()
		f = bp.table[id]
	}
	return f
}

// loadLocked is the pool's one miss path, free → cached: take a victim
// frame, enter it into the page table pinned and marked loading, release
// bp.mu while the disk reads page id into it and the checksum is
// verified, then take bp.mu back, clear the mark and wake the waiting
// fetches. The frame is returned pinned once, off the LRU; the caller
// keeps or drops that pin before it releases bp.mu. On any failure the
// frame leaves the table and goes back to the free list. Caller holds
// bp.mu; it is released and retaken inside.
//
// Disk always holds the newest published content at miss time
// (published dirty frames are flushed before eviction, and no frame of
// id can be written while this one holds its slot), so the loaded
// frame's version tag is the newest commit recorded against this page
// in the sidecar — or 0 ("pre-history") when no retained version chain
// mentions it.
func (bp *BufferPool) loadLocked(id PageID) (*Frame, error) {
	f, err := bp.victimLocked()
	if err != nil {
		return nil, err
	}
	f.Page.ID = id
	f.pins = 1
	f.loading = true
	bp.table[id] = f
	bp.mu.Unlock()
	if err = bp.disk.ReadPage(id, f.Page.Buf[:]); err == nil {
		bp.stats.physicalReads.Add(1)
		bp.stats.bytesRead.Add(PageSize)
		err = f.Page.VerifyChecksum()
	}
	bp.mu.Lock()
	bp.loaded.Broadcast()
	if err != nil {
		delete(bp.table, id)
		f.pins = 0
		bp.freeLocked(f)
		return nil, err
	}
	f.loading = false
	f.pageLSN.Store(f.Page.LSN())
	f.verTag = bp.latestSupersedeLocked(id)
	bp.stats.admissions.Add(1)
	return f, nil
}

// NewPage allocates a fresh page on disk and returns it pinned and
// zero-initialized with the given type.
func (bp *BufferPool) NewPage(t PageType) (*Frame, error) {
	id, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.victimLocked()
	if err != nil {
		return nil, err
	}
	f.Page.ID = id
	f.Page.Init(t)
	f.pins = 1
	f.dirty = true
	bp.stats.admissions.Add(1)
	if c := bp.capture.Load(); c != nil {
		// A page created inside a write session is a pending version with
		// no pre-image: invisible to snapshots, kept off the LRU until the
		// session publishes or aborts.
		f.unlogged = true
		f.pending = true
		f.verTag = viewCurrent
		c.add(f)
	}
	bp.table[id] = f
	return f, nil
}

// victimLocked returns a frame in the free state (see Frame.reset),
// evicting the pool's coldest evictable unpinned page if the pool is
// full. The returned frame is not yet in the table. Caller holds bp.mu.
//
// Eviction order is probation tail first (one-touch pages — a scan's
// own wake), then the protected tail — so a whole-blob scan recycles
// its own probationary frames and the re-referenced hot set survives.
//
// With a WAL attached, a dirty frame is evictable only when its latest
// logged image is durable (pageLSN < DurableLSN) — the WAL-before-flush
// invariant — and a frame dirtied by the active uncommitted session
// (unlogged) is never evictable. Each scan walks from the list tail
// toward warmer frames until it finds an evictable victim.
func (bp *BufferPool) victimLocked() (*Frame, error) {
	if len(bp.table) < bp.cap {
		if n := len(bp.free); n > 0 {
			f := bp.free[n-1]
			bp.free = bp.free[:n-1]
			return f, nil
		}
		return &Frame{}, nil
	}
	for tier := range bp.lru {
		l := &bp.lru[tier]
		for e := l.root.prev; e != &l.root; e = e.prev {
			f := e.frame
			// Pending and versioned frames never enter the LRU lists; the
			// guard is defense in depth (evicting one would recycle a frame
			// a capture or snapshot still points at).
			if f.pending || f.versioned {
				continue
			}
			if f.dirty && !bp.flushableLocked(f) {
				continue
			}
			// Flush a dirty victim BEFORE unhooking it: if the write-back
			// fails, the frame stays cached (table + LRU) so the modified
			// page is not lost — the caller sees the error and the data
			// survives for a retry.
			if f.dirty {
				if err := bp.writeFrameLocked(f); err != nil {
					return nil, err
				}
			}
			l.remove(f)
			delete(bp.table, f.Page.ID)
			bp.stats.evictions.Add(1)
			if tier == int(tierProbation) {
				bp.stats.scanEvictions.Add(1)
			}
			f.reset()
			return f, nil
		}
	}
	return nil, fmt.Errorf("pages: buffer pool exhausted: all %d frames pinned or awaiting WAL durability", bp.cap)
}

// flushableLocked reports whether a dirty frame may be written to the
// database file under the WAL-before-flush protocol. Caller holds bp.mu.
func (bp *BufferPool) flushableLocked(f *Frame) bool {
	if bp.wal == nil {
		return true
	}
	if f.unlogged {
		return false
	}
	return f.pageLSN.Load() < bp.wal.DurableLSN()
}

// writeFrameLocked flushes one frame to disk. Caller holds bp.mu.
func (bp *BufferPool) writeFrameLocked(f *Frame) error {
	f.Page.UpdateChecksum()
	if err := bp.disk.WritePage(f.Page.ID, f.Page.Buf[:]); err != nil {
		return err
	}
	bp.stats.writes.Add(1)
	bp.stats.bytesWritten.Add(PageSize)
	f.dirty = false
	return nil
}

// Unpin releases a pinned frame; dirty marks it modified so eviction
// writes it back.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if dirty {
		if f.versioned {
			panic(fmt.Sprintf("pages: write to superseded version of page %d", f.Page.ID))
		}
		f.dirty = true
		if c := bp.capture.Load(); c != nil {
			if !f.pending {
				// A write session must reach every page it mutates through
				// FetchForWrite (or NewPage) so snapshots keep reading the
				// committed pre-image; an in-place write here would tear
				// concurrent snapshot reads.
				panic(fmt.Sprintf("pages: in-place write to page %d under an active write session (missing FetchForWrite)", f.Page.ID))
			}
			f.unlogged = true
			c.add(f)
		}
	}
	if f.pins > 0 {
		f.pins--
	}
	bp.relinkLocked(f)
	// A superseded version never re-enters the LRU; it is retired once
	// unpinned and no longer needed.
	if f.versioned && f.pins == 0 {
		bp.dropVersionsLocked(f.Page.ID)
	}
}

// FlushAll writes every dirty cached page to disk — the flush half of a
// checkpoint. With a WAL attached it first syncs the log (so every
// pageLSN is durable and the WAL-before-flush invariant holds for each
// write), and refuses outright if any dirty frame belongs to an active
// uncommitted write session.
func (bp *BufferPool) FlushAll() error {
	if bp.wal != nil {
		if err := bp.wal.Sync(); err != nil {
			return err
		}
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.table {
		if f.dirty {
			if f.unlogged || f.pending {
				return fmt.Errorf("pages: page %d dirty but unlogged (write session active during flush)", f.Page.ID)
			}
			if err := bp.writeFrameLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropCleanBuffers flushes dirty pages and then empties the cache — the
// equivalent of DBCC DROPCLEANBUFFERS, which the paper's benchmark runs
// before each query ("The database server cache was explicitly cleared
// before each performance test run", §6.3). Pinned pages (a page a miss
// is still reading among them) make it fail before anything is flushed
// or dropped.
func (bp *BufferPool) DropCleanBuffers() error {
	if bp.wal != nil {
		if err := bp.wal.Sync(); err != nil {
			return err
		}
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.table {
		if f.pins > 0 {
			return fmt.Errorf("pages: page %d still pinned", id)
		}
		if f.unlogged || f.pending {
			return fmt.Errorf("pages: page %d dirty but unlogged (write session active)", id)
		}
	}
	for id, vs := range bp.vers {
		for _, f := range vs {
			if f.pins > 0 {
				return fmt.Errorf("pages: superseded version of page %d still pinned", id)
			}
		}
	}
	for _, f := range bp.table {
		if f.dirty {
			if err := bp.writeFrameLocked(f); err != nil {
				return err
			}
		}
	}
	// Recycle the frames instead of abandoning 8 kB buffers to the GC.
	bp.lru[tierProbation].init()
	bp.lru[tierProtected].init()
	for _, f := range bp.table {
		bp.freeLocked(f)
	}
	clear(bp.table)
	// Retire whatever versions no live snapshot can still need; the
	// rest stay in the sidecar (an active snapshot may come back for
	// them — dropping the *current* cache never invalidates history).
	bp.retireVersionsLocked()
	return nil
}

// Capacity returns the pool size in frames.
func (bp *BufferPool) Capacity() int { return bp.cap }

// PinnedFrames returns the number of frames with a nonzero pin count.
// A quiesced pool must report zero; iterators and cursors that terminate
// early are required to release on Close, and tests assert this
// invariant through here.
func (bp *BufferPool) PinnedFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.table {
		if f.pins > 0 {
			n++
		}
	}
	for _, vs := range bp.vers {
		for _, f := range vs {
			if f.pins > 0 {
				n++
			}
		}
	}
	return n
}

// CachedPages returns the number of pages currently cached.
func (bp *BufferPool) CachedPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.table)
}
