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
// fetched frame; the Page must not be touched after unpinning. The pin
// count is an atomic so observers (PinnedFrames, assertions in tests)
// can read it without taking the owning shard's lock; mutations happen
// under that lock, which is what makes the pin-count/LRU transition
// race-free.
type Frame struct {
	Page  Page
	pins  atomic.Int32
	dirty bool    // guarded by shard.mu
	link  lruLink // place on its tier's segment, zero when on none; guarded by shard.mu
	tier  int8    // SLRU segment (probation/protected); guarded by shard.mu
	shard *shard  // owning shard; frames never migrate
	// pageLSN is the WAL LSN of the record holding the frame's latest
	// logged image. The flush gate compares it against the log's durable
	// LSN: a dirty frame may only reach the database file once its log
	// record is durable (WAL-before-flush). Atomic so eviction scans can
	// read it without extra synchronization beyond the shard lock.
	pageLSN atomic.Uint64
	// unlogged marks a frame dirtied by the active write session whose
	// image has not been appended to the WAL yet. Such a frame must not
	// be flushed or evicted under any circumstances — its changes exist
	// nowhere but in memory. Guarded by shard.mu.
	unlogged bool
	// verTag is the commit tag of the version this frame holds: the frame
	// is visible to a view V exactly when verTag <= V. Tag 0 is "older than
	// every snapshot"; a pending frame carries viewCurrent, the one tag no
	// snapshot reaches, until publish stamps the real one. Atomic so
	// fetches can check visibility while a publish is stamping other
	// shards.
	verTag atomic.Uint64
	// pending marks the private copy-on-write frame of the active write
	// session: invisible to every snapshot, never on an LRU list, never
	// flushed or evicted (publish or abort decides its fate). Guarded by
	// shard.mu.
	pending bool
	// versioned marks a superseded pre-image living in the shard's
	// version sidecar rather than the page table: readable by old
	// snapshots, never re-enters the LRU, never flushed (its content is
	// stale by definition). Guarded by shard.mu.
	versioned bool
	// supersededBy is the commit tag of the version that replaced this
	// sidecar entry — viewCurrent while the replacing session is still
	// uncommitted. The entry is what a view V reads exactly when
	// verTag <= V < supersededBy, and is retired once no live snapshot's
	// tag falls in that interval. Guarded by shard.mu.
	supersededBy uint64
	// pre is the committed pre-image a pending copy-on-write frame
	// displaced into the sidecar (nil for a page the session created).
	// Publish stamps its supersede tag through it and abort puts it back
	// in the page table; both clear it, so no frame points at one that
	// has since been recycled. Guarded by shard.mu.
	pre *Frame
	// capStamp is the id of the capture that recorded the frame: a
	// frame is in capture c exactly when capStamp == c.id, so recording
	// it once needs no set. Guarded by shard.mu.
	capStamp uint64
}

// reset returns a frame to the free state. Every path out of the cache
// (eviction, failed load, abort, version retirement, DropCleanBuffers)
// goes through here, so a frame taken from victimLocked carries nothing
// of the page it last held. Caller holds the owning shard's mutex and
// the frame is unpinned and off the LRU lists.
func (f *Frame) reset() {
	f.dirty, f.unlogged, f.pending, f.versioned = false, false, false, false
	f.link = lruLink{}
	f.tier = tierProbation
	f.supersededBy = 0
	f.pre = nil
	f.capStamp = 0
	f.pageLSN.Store(0)
	f.verTag.Store(0)
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
type Capture struct {
	id     uint64 // never reused within a pool, so a stale stamp cannot match
	mu     sync.Mutex
	frames []*Frame
	// first backs frames up to its length, so a session that writes a
	// few pages allocates no slice for them.
	first [4]*Frame
}

// add records f once, in first-dirtied order. Caller holds f's shard
// lock, which guards the stamp.
func (c *Capture) add(f *Frame) {
	if f.capStamp == c.id {
		return
	}
	f.capStamp = c.id
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
}

// recorded returns the captured frames. The slice is the capture's own:
// EndCapture, PreparePublish and AbortCapture share it, and callers must
// not modify it.
func (c *Capture) recorded() []*Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

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

// shard is one lock stripe of the pool: an independent page table,
// segmented LRU (probationary + protected lists) and recycled-frame
// free list guarded by a single mutex. Pages are assigned to shards by
// a multiplicative hash of their PageID, so two scans touching
// different pages contend only when their pages hash to the same
// stripe.
type shard struct {
	mu      sync.Mutex
	bit     uint64 // this shard's bit in BufferPool.versMask
	cap     int
	protCap int // max unpinned frames the protected segment may hold
	table   map[PageID]*Frame
	lru     [2]segment // indexed by tier: probation, protected
	free    []*Frame   // recycled frames (DropCleanBuffers feeds this)
	// vers is the page-version sidecar: superseded pre-image frames per
	// page, oldest first (ascending verTag). Entries live outside the
	// page table and the LRU lists; they are dropped once no active
	// snapshot can read them (see retainedLocked). Guarded by mu; the
	// pool's versMask bit for the shard is set while it is non-empty.
	vers map[PageID][]*Frame
}

// pushVersionLocked appends a displaced pre-image to id's sidecar chain
// and marks the shard in the pool's version mask. Caller holds s.mu.
func (s *shard) pushVersionLocked(bp *BufferPool, id PageID, f *Frame) {
	s.vers[id] = append(s.vers[id], f)
	bp.markVersions(s.bit, true)
}

// forgetVersionsLocked deletes id's (emptied) sidecar chain and clears
// the shard's mask bit when that leaves the sidecar empty. Caller holds
// s.mu, so no push can land between the length check and the clear.
func (s *shard) forgetVersionsLocked(bp *BufferPool, id PageID) {
	delete(s.vers, id)
	if len(s.vers) == 0 {
		bp.markVersions(s.bit, false)
	}
}

// unlinkLocked takes a frame off its LRU list (no-op when it is on
// none), so the victim scan cannot reach it. Caller holds s.mu.
func (s *shard) unlinkLocked(f *Frame) {
	if f.link.next != nil {
		s.lru[f.tier].remove(f)
	}
}

// relinkLocked puts an unpinned cached frame back on its tier's LRU list
// at the MRU end and demotes protected-tail frames into probation until
// the protected segment fits its cap, so it cannot monopolize the
// stripe. Pending and versioned frames stay off the lists: a pending
// frame's fate is decided by publish/abort, and a superseded version
// must never become an eviction victim (flushing its stale content
// would clobber newer disk state). Caller holds s.mu.
func (s *shard) relinkLocked(f *Frame) {
	if f.pins.Load() != 0 || f.link.next != nil || f.pending || f.versioned {
		return
	}
	s.lru[f.tier].pushFront(f)
	for prot := &s.lru[tierProtected]; prot.n > s.protCap; {
		d := prot.root.prev.frame
		prot.remove(d)
		d.tier = tierProbation
		s.lru[tierProbation].pushFront(d)
	}
}

// touchLocked pins a cached frame for a hit: off the LRU while pinned,
// and a probationary frame is promoted into the protected segment (the
// SLRU admission rule — one touch is not enough to displace the hot
// set, two are). Caller holds s.mu.
func (s *shard) touchLocked(bp *BufferPool, f *Frame) {
	s.unlinkLocked(f)
	if f.tier == tierProbation {
		f.tier = tierProtected
		bp.stats.promotions.Add(1)
	}
	f.pins.Add(1)
}

// freeLocked recycles an unpinned frame that is in neither the page
// table, the sidecar nor an LRU list. Caller holds s.mu.
func (s *shard) freeLocked(f *Frame) {
	f.reset()
	s.free = append(s.free, f)
}

// BufferPool caches pages over a DiskManager with segmented-LRU
// replacement. It is safe for concurrent use: the page table is striped
// across a power-of-two set of shards, each with its own mutex, LRU
// lists and free list, so parallel scan workers fetching disjoint pages
// do not serialize on a single pool lock.
type BufferPool struct {
	disk    DiskManager
	cap     int
	shards  []*shard
	shift   uint // 32 - log2(len(shards)); hash top bits pick the shard
	stats   counters
	wal     WAL // flush gate; nil = no durability protocol
	capture atomic.Pointer[Capture]
	capSeq  atomic.Uint64 // last Capture.id handed out
	// versMask has bit i set while shards[i]'s version sidecar is
	// non-empty, so retirement visits only the shards that hold
	// versions. Each bit changes under its shard's lock.
	versMask atomic.Uint64
	// snapClock is the synthetic commit clock: the tag of the newest
	// published commit. AcquireSnapshot reads it; FinishPublish advances
	// it. It starts at 1 so content tagged 0 ("pre-history": pages loaded
	// from disk with an empty sidecar, recovered state) is visible to
	// every snapshot.
	snapClock atomic.Uint64
	// snapMu guards snapActive and orders every retirement check after
	// the acquires and clock ticks it must see; it is taken before any
	// shard lock.
	snapMu     sync.Mutex
	snapActive []uint64 // live snapshot tags, one per snapshot, ascending
	// published lists the pages whose pre-images the prepared commit
	// superseded, for FinishPublish to re-check. The pool has one
	// capture at a time, so one publisher owns it.
	published []PageID
}

const (
	// minShardFrames is the smallest per-shard capacity worth striping:
	// below it, a shard's LRU is so short that per-shard capacity skew
	// would cause spurious "pool exhausted" errors, so small pools stay
	// single-shard (and keep the exact semantics the seed pool had).
	minShardFrames = 64
	// maxShards caps the stripe count; 64 stripes are plenty to spread
	// any realistic core count, and each stripe has one bit in the
	// uint64 version mask.
	maxShards = 64
)

// maxShards must fit the version mask's bits.
var _ [64 - maxShards]struct{}

// markVersions sets (on) or clears bit in the version mask. The caller
// holds the shard lock that owns the bit; the loop only guards against
// other shards changing theirs at the same time.
func (bp *BufferPool) markVersions(bit uint64, on bool) {
	for {
		m := bp.versMask.Load()
		n := m &^ bit
		if on {
			n = m | bit
		}
		if n == m || bp.versMask.CompareAndSwap(m, n) {
			return
		}
	}
}

// shardCountFor picks the power-of-two stripe count for a capacity.
func shardCountFor(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minShardFrames {
		n *= 2
	}
	return n
}

// NewBufferPool creates a pool holding up to capacity pages, striped
// over an automatically sized shard set (1 stripe for small pools, up
// to 64 for large ones).
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	nShards := shardCountFor(capacity)
	log2 := 0
	for 1<<uint(log2+1) <= nShards {
		log2++
	}
	bp := &BufferPool{
		disk:   disk,
		cap:    capacity,
		shards: make([]*shard, nShards),
		shift:  uint(32 - log2),
	}
	bp.snapClock.Store(1)
	base, rem := capacity/nShards, capacity%nShards
	for i := range bp.shards {
		c := base
		if i < rem {
			c++
		}
		s := &shard{
			bit:     1 << uint(i),
			cap:     c,
			protCap: c * 3 / 4,
			table:   make(map[PageID]*Frame, c),
			vers:    make(map[PageID][]*Frame),
		}
		s.lru[tierProbation].init()
		s.lru[tierProtected].init()
		bp.shards[i] = s
	}
	return bp
}

// shardFor maps a page id onto its stripe. Fibonacci hashing spreads
// both sequential ids (B-tree leaf chains) and strided ones evenly.
func (bp *BufferPool) shardFor(id PageID) *shard {
	if len(bp.shards) == 1 {
		return bp.shards[0]
	}
	h := uint32(id) * 2654435769 // 2^32 / phi
	return bp.shards[h>>bp.shift]
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
	c := &Capture{id: bp.capSeq.Add(1)}
	c.frames = c.first[:0]
	if !bp.capture.CompareAndSwap(nil, c) {
		return nil, fmt.Errorf("pages: a write capture is already active")
	}
	return c, nil
}

// EndCapture stops recording and returns the dirtied frames. The caller
// must then log each frame (LogDirtyFrame) — until it does, the frames
// stay unflushable.
func (bp *BufferPool) EndCapture(c *Capture) []*Frame {
	bp.capture.CompareAndSwap(c, nil)
	return c.recorded()
}

// LogDirtyFrame locks the frame's shard and hands its page to fn, which
// must append the page image to the WAL and return the assigned LSN.
// On success the frame's pageLSN advances and its unlogged mark clears,
// making it flushable once the log syncs. fn runs under the shard lock:
// it may stamp the page header and read the buffer, but must not touch
// the pool.
func (bp *BufferPool) LogDirtyFrame(f *Frame, fn func(p *Page) (uint64, error)) error {
	s := f.shard
	s.mu.Lock()
	defer s.mu.Unlock()
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
// shared page table.
func (bp *BufferPool) fetch(id PageID, view uint64) (*Frame, error) {
	bp.stats.logicalReads.Add(1)
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.table[id]
	if f != nil && f.verTag.Load() <= view {
		s.touchLocked(bp, f)
		return f, nil
	}
	if v := s.versionAtLocked(id, view); v != nil {
		v.pins.Add(1)
		bp.stats.snapshotReads.Add(1)
		return v, nil
	}
	if f == nil {
		var err error
		if f, err = s.loadLocked(bp, id); err != nil {
			return nil, err
		}
		if f.verTag.Load() <= view {
			f.pins.Store(1)
			return f, nil
		}
		s.relinkLocked(f)
	}
	// Unreachable while the retention rule holds (a version stays while
	// a live snapshot's tag falls in its interval); kept as a hard error
	// rather than silent wrong data.
	return nil, fmt.Errorf("pages: snapshot %d has no visible version of page %d (newest is %d)", view, id, f.verTag.Load())
}

// loadLocked is the pool's one miss path, free → cached: take a victim
// frame, read page id into it, verify the image, and enter it into the
// page table unpinned and off the LRU (every caller pins or displaces it
// before releasing s.mu). On any failure the frame goes back to the
// free list and the table is untouched. Caller holds s.mu.
//
// Disk always holds the newest published content at miss time
// (published dirty frames are flushed before eviction), so the loaded
// frame's version tag is the newest commit recorded against this page
// in the sidecar — or 0 ("pre-history") when no retained version chain
// mentions it.
func (s *shard) loadLocked(bp *BufferPool, id PageID) (*Frame, error) {
	f, err := s.victimLocked(bp)
	if err != nil {
		return nil, err
	}
	f.Page.ID = id
	if err = bp.disk.ReadPage(id, f.Page.Buf[:]); err == nil {
		bp.stats.physicalReads.Add(1)
		bp.stats.bytesRead.Add(PageSize)
		err = f.Page.VerifyChecksum()
	}
	if err != nil {
		s.freeLocked(f)
		return nil, err
	}
	f.pageLSN.Store(f.Page.LSN())
	f.verTag.Store(s.latestSupersedeLocked(id))
	bp.stats.admissions.Add(1)
	s.table[id] = f
	return f, nil
}

// NewPage allocates a fresh page on disk and returns it pinned and
// zero-initialized with the given type.
func (bp *BufferPool) NewPage(t PageType) (*Frame, error) {
	id, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.victimLocked(bp)
	if err != nil {
		return nil, err
	}
	f.Page.ID = id
	f.Page.Init(t)
	f.pins.Store(1)
	f.dirty = true
	bp.stats.admissions.Add(1)
	if c := bp.capture.Load(); c != nil {
		// A page created inside a write session is a pending version with
		// no pre-image: invisible to snapshots, kept off the LRU until the
		// session publishes or aborts.
		f.unlogged = true
		f.pending = true
		f.verTag.Store(viewCurrent)
		c.add(f)
	}
	s.table[id] = f
	return f, nil
}

// victimLocked returns a frame in the free state (see Frame.reset),
// evicting the shard's coldest evictable unpinned page if the stripe is
// full. The returned frame is not yet in the table. Caller holds s.mu.
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
func (s *shard) victimLocked(bp *BufferPool) (*Frame, error) {
	if len(s.table) < s.cap {
		if n := len(s.free); n > 0 {
			f := s.free[n-1]
			s.free = s.free[:n-1]
			return f, nil
		}
		return &Frame{shard: s}, nil
	}
	for tier := range s.lru {
		l := &s.lru[tier]
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
			delete(s.table, f.Page.ID)
			bp.stats.evictions.Add(1)
			if tier == int(tierProbation) {
				bp.stats.scanEvictions.Add(1)
			}
			f.reset()
			return f, nil
		}
	}
	return nil, fmt.Errorf("pages: buffer pool exhausted: all %d frames of the stripe pinned or awaiting WAL durability (pool capacity %d over %d shards)",
		s.cap, bp.cap, len(bp.shards))
}

// flushableLocked reports whether a dirty frame may be written to the
// database file under the WAL-before-flush protocol. Caller holds the
// owning shard's mutex.
func (bp *BufferPool) flushableLocked(f *Frame) bool {
	if bp.wal == nil {
		return true
	}
	if f.unlogged {
		return false
	}
	return f.pageLSN.Load() < bp.wal.DurableLSN()
}

// writeFrameLocked flushes one frame to disk. Caller holds the owning
// shard's mutex; the disk managers are themselves concurrency-safe, so
// two shards may write back simultaneously.
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
	s := f.shard
	s.mu.Lock()
	if dirty {
		if f.versioned {
			s.mu.Unlock()
			panic(fmt.Sprintf("pages: write to superseded version of page %d", f.Page.ID))
		}
		f.dirty = true
		if c := bp.capture.Load(); c != nil {
			if !f.pending {
				// A write session must reach every page it mutates through
				// FetchForWrite (or NewPage) so snapshots keep reading the
				// committed pre-image; an in-place write here would tear
				// concurrent snapshot reads.
				s.mu.Unlock()
				panic(fmt.Sprintf("pages: in-place write to page %d under an active write session (missing FetchForWrite)", f.Page.ID))
			}
			f.unlogged = true
			c.add(f)
		}
	}
	if f.pins.Load() > 0 {
		f.pins.Add(-1)
	}
	s.relinkLocked(f)
	// A superseded version never re-enters the LRU; it is retired once
	// unpinned and no longer needed. The check takes snapMu, which ranks
	// above the shard lock.
	retire := f.versioned && f.pins.Load() == 0
	id := f.Page.ID
	s.mu.Unlock()
	if retire {
		bp.retirePage(id)
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
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, f := range s.table {
			if f.dirty {
				if f.unlogged || f.pending {
					s.mu.Unlock()
					return fmt.Errorf("pages: page %d dirty but unlogged (write session active during flush)", f.Page.ID)
				}
				if err := bp.writeFrameLocked(f); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// DropCleanBuffers flushes dirty pages and then empties the cache — the
// equivalent of DBCC DROPCLEANBUFFERS, which the paper's benchmark runs
// before each query ("The database server cache was explicitly cleared
// before each performance test run", §6.3). Pinned pages make it fail
// before anything is flushed or dropped: all stripes are locked, the
// no-pins invariant is checked across the whole pool, and only then is
// the cache cleared.
func (bp *BufferPool) DropCleanBuffers() error {
	if bp.wal != nil {
		if err := bp.wal.Sync(); err != nil {
			return err
		}
	}
	bp.snapMu.Lock()
	defer bp.snapMu.Unlock()
	for _, s := range bp.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range bp.shards {
			s.mu.Unlock()
		}
	}()
	for _, s := range bp.shards {
		for id, f := range s.table {
			if f.pins.Load() > 0 {
				return fmt.Errorf("pages: page %d still pinned", id)
			}
			if f.unlogged || f.pending {
				return fmt.Errorf("pages: page %d dirty but unlogged (write session active)", id)
			}
		}
		for id, vs := range s.vers {
			for _, f := range vs {
				if f.pins.Load() > 0 {
					return fmt.Errorf("pages: superseded version of page %d still pinned", id)
				}
			}
		}
	}
	for _, s := range bp.shards {
		for _, f := range s.table {
			if f.dirty {
				if err := bp.writeFrameLocked(f); err != nil {
					return err
				}
			}
		}
		// Recycle the frames instead of abandoning 8 kB buffers to the GC.
		s.lru[tierProbation].init()
		s.lru[tierProtected].init()
		for _, f := range s.table {
			s.freeLocked(f)
		}
		s.table = make(map[PageID]*Frame, s.cap)
		// Retire whatever versions no live snapshot can still need; the
		// rest stay in the sidecar (an active snapshot may come back for
		// them — dropping the *current* cache never invalidates history).
		for id := range s.vers {
			s.dropVersionsLocked(bp, id)
		}
	}
	return nil
}

// Capacity returns the pool size in frames.
func (bp *BufferPool) Capacity() int { return bp.cap }

// Shards returns the number of lock stripes.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// PinnedFrames returns the number of frames with a nonzero pin count.
// A quiesced pool must report zero; iterators and cursors that terminate
// early are required to release on Close, and tests assert this
// invariant through here.
func (bp *BufferPool) PinnedFrames() int {
	n := 0
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, f := range s.table {
			if f.pins.Load() > 0 {
				n++
			}
		}
		for _, vs := range s.vers {
			for _, f := range vs {
				if f.pins.Load() > 0 {
					n++
				}
			}
		}
		s.mu.Unlock()
	}
	return n
}

// CachedPages returns the number of pages currently cached.
func (bp *BufferPool) CachedPages() int {
	n := 0
	for _, s := range bp.shards {
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}
