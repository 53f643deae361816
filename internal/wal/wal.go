// Package wal implements the redo-only write-ahead log behind the
// sqlarray engine's durability story: an append-only stream of
// CRC-framed records over numbered segment files, monotonically
// increasing log sequence numbers, an append buffer made durable by an
// explicit Sync, and checkpoint records that bound how much of the log
// recovery has to replay. A storage error from a segment append,
// fsync, roll or truncation fails the log for good: it refuses every
// later record, and the way back is to reopen it and recover.
//
// The log is deliberately engine-agnostic: record payloads are opaque
// bytes. The engine logs full page after-images plus commit records
// carrying catalog deltas; because after-images are physical and
// replayed in log order, recovery is idempotent — replaying a record
// twice, or replaying a change that already reached the database file,
// converges to the same bytes. That is what lets recovery start from an
// arbitrary mix of flushed and unflushed pages (the paper's arrays live
// inside SQL Server for exactly this property: in-place array updates
// with ACID semantics, §1).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sqlarray/internal/obs"
)

// LSN is a log sequence number: the logical byte offset of a record's
// frame within the whole log stream. LSNs increase monotonically and
// survive segment rolls; LSN 0 is "nothing logged".
type LSN uint64

// RecordType tags what a record's payload means. The wal package only
// interprets RecCheckpoint (replay bound, segment pruning); everything
// else is opaque to it.
type RecordType uint8

const (
	// RecPageImage is a full page after-image: payload is a 4-byte
	// little-endian page id followed by the page bytes.
	RecPageImage RecordType = 1
	// RecCommit marks a statement boundary; payload is the engine's
	// catalog delta. Records after the last RecCommit/RecCheckpoint are
	// an uncommitted tail and are discarded by recovery.
	RecCommit RecordType = 2
	// RecCheckpoint bounds replay: payload is the engine's full catalog
	// snapshot, and every earlier record is already reflected in the
	// database file.
	RecCheckpoint RecordType = 3
	// RecPagePrefix is a truncated page after-image: payload is a 4-byte
	// little-endian page id followed by only the page's header plus used
	// body bytes. The writer guarantees the omitted tail is zero, so
	// recovery reconstructs the full page by zero-extending — byte-exact,
	// checksum included. Used for blob pages, where compressed chunks
	// leave most of the 8 kB body empty and full images would bloat the
	// log.
	RecPagePrefix RecordType = 4
)

const (
	// frame: crc32 | payload len | type | lsn
	frameHeaderSize = 4 + 4 + 1 + 8
	// segment file header: magic + base LSN.
	segHeaderSize = 16
	segMagic      = "SQAWAL01"
	// defaultSegmentSize is the roll-over threshold for segment files.
	defaultSegmentSize = 4 << 20
	// appendBufferLimit bounds the append buffer: an Append that would
	// grow it past this writes the buffered frames to the segment first,
	// without a sync, so the buffer's memory stays fixed however many
	// records a commit logs.
	appendBufferLimit = 256 << 10
	// maxRecordSize bounds a single record (a page image plus slack is
	// ~8.2 kB; catalog snapshots are small — 16 MB is a corruption
	// tripwire, not a real limit).
	maxRecordSize = 16 << 20
)

// Errors returned by the log.
var (
	errClosed   = errors.New("wal: log closed")
	errTooLarge = errors.New("wal: record too large")
)

// Stats is a snapshot of the log's I/O counters. It is the last typed
// snapshot: the benchmark still reads it, every other reader uses the
// registry's wal.* series.
type Stats struct {
	Records      uint64 // records appended
	BytesLogged  uint64 // framed bytes appended (buffered or written)
	Syncs        uint64 // segment fsyncs (Sync, Checkpoint, Close, rolls)
	Checkpoints  uint64
	SegmentRolls uint64
}

// Options configures a log.
type Options struct {
	// SegmentSize is the roll-over threshold in bytes (default 4 MB).
	SegmentSize int64
}

// segInfo describes one live segment.
type segInfo struct {
	seq  uint32
	base LSN // LSN of the first record in the segment
}

// Log is the write-ahead log. Appends are buffered and become durable on
// Sync. A Log is safe for concurrent use: every method runs under one
// mutex, the segment fsync included (the engine serializes writers
// anyway). DurableLSN is lock-free so the buffer pool's flush gate never
// contends with appends.
//
// The first storage error from a segment append, fsync, roll or
// truncation is final. Append, Sync and Checkpoint return it from then
// on and DurableLSN never moves again, so no record whose bytes may not
// have reached the storage is ever reported durable. Recovery is
// reopening: Open plus the engine's replay.
type Log struct {
	mu       sync.Mutex
	st       Storage
	segs     []segInfo
	cur      Segment
	curSize  int64 // bytes in the current segment, including buffered
	buf      []byte
	nextLSN  LSN
	durable  atomic.Uint64
	lastCkpt LSN // LSN of the last checkpoint record (0 = none)
	segLimit int64
	closed   bool
	err      error // first storage error; non-nil fails the log

	records      obs.Counter
	bytesLogged  obs.Counter
	syncs        obs.Counter
	checkpoints  obs.Counter
	segmentRolls obs.Counter
	syncLatency  obs.Histogram // wall time of each segment fsync
}

// RegisterMetrics attaches the log's counters to reg under the "wal."
// prefix, including the fsync latency histogram.
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	reg.Attach("wal.records", &l.records)
	reg.Attach("wal.bytes_logged", &l.bytesLogged)
	reg.Attach("wal.syncs", &l.syncs)
	reg.Attach("wal.checkpoints", &l.checkpoints)
	reg.Attach("wal.segment_rolls", &l.segmentRolls)
	reg.AttachHistogram("wal.sync_latency", &l.syncLatency)
}

// Open opens (or initializes) a log over st, scanning existing segments
// to find the end of the valid record stream. A torn tail — a record
// whose frame is short or whose CRC does not match — is truncated away,
// along with any later segments, and a newest segment shorter than its
// header is removed. A short header on an earlier segment is an error.
// The returned log is positioned to append after the last valid record;
// call Recover before appending to replay the tail since the last
// checkpoint.
func Open(st Storage, o Options) (*Log, error) {
	if o.SegmentSize <= 0 {
		o.SegmentSize = defaultSegmentSize
	}
	l := &Log{st: st, segLimit: o.SegmentSize}
	seqs, err := st.List()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := l.createSegment(0, 0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Scan segments in order, validating the record chain.
	var r frameReader
	var lastValidEnd LSN
	torn := false
	for i, seq := range seqs {
		if torn {
			// Everything past the torn point is unreachable.
			_ = st.Remove(seq)
			continue
		}
		seg, err := st.Open(seq)
		if err != nil {
			return nil, err
		}
		if i == len(seqs)-1 {
			// A crash before the newest segment's first sync can leave
			// it shorter than its header. It holds no acknowledged
			// record: drop it like a torn tail and append to the
			// previous segment (or a fresh segment 0) instead.
			size, err := seg.Size()
			if err != nil {
				seg.Close()
				return nil, err
			}
			if size < segHeaderSize {
				seg.Close()
				if err := st.Remove(seq); err != nil {
					return nil, err
				}
				continue
			}
		}
		base, end, ckpt, segTorn, err := l.scanSegment(seg, &r)
		if err != nil {
			seg.Close()
			return nil, fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		if i == 0 {
			l.nextLSN = base
		} else if base != lastValidEnd {
			// Gap between segments: treat the remainder as lost.
			seg.Close()
			torn = true
			_ = st.Remove(seq)
			continue
		}
		l.segs = append(l.segs, segInfo{seq: seq, base: base})
		if ckpt != 0 {
			l.lastCkpt = ckpt
		}
		lastValidEnd = end
		if segTorn {
			if err := seg.Truncate(segHeaderSize + int64(end-base)); err != nil {
				seg.Close()
				return nil, err
			}
			torn = true
		}
		if i == len(seqs)-1 || torn {
			l.cur = seg
			l.curSize = segHeaderSize + int64(end-base)
		} else {
			seg.Close()
		}
	}
	l.nextLSN = lastValidEnd
	l.durable.Store(uint64(lastValidEnd))
	if l.cur == nil {
		// The tail was lost to an inter-segment gap or a torn segment
		// header after a fully valid (and already closed) segment:
		// reopen the last valid segment for appending rather than
		// fabricating a new one — its file still exists, and its
		// record prefix is the log.
		if len(l.segs) > 0 {
			last := l.segs[len(l.segs)-1]
			seg, err := l.st.Open(last.seq)
			if err != nil {
				return nil, err
			}
			l.cur = seg
			l.curSize = segHeaderSize + int64(lastValidEnd-last.base)
		} else if err := l.createSegment(0, 0); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// scanSegment validates a segment's header and walks its records,
// returning the base LSN, the LSN just past the last valid record, the
// LSN of the last checkpoint record seen, and whether the tail was torn.
func (l *Log) scanSegment(seg Segment, r *frameReader) (base, end, ckpt LSN, torn bool, err error) {
	var hdr [segHeaderSize]byte
	if _, err := seg.ReadAt(hdr[:], 0); err != nil {
		return 0, 0, 0, false, fmt.Errorf("short segment header: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, 0, 0, false, fmt.Errorf("bad segment magic %q", hdr[:8])
	}
	base = LSN(binary.LittleEndian.Uint64(hdr[8:]))
	size, err := seg.Size()
	if err != nil {
		return 0, 0, 0, false, err
	}
	off := int64(segHeaderSize)
	end = base
	for off < size {
		_, typ, n, ok := r.read(seg, off, size)
		if !ok {
			return base, end, ckpt, true, nil
		}
		if typ == RecCheckpoint {
			ckpt = end
		}
		off += n
		end = base + LSN(off-segHeaderSize)
	}
	return base, end, ckpt, false, nil
}

// frameReader reads record frames into one buffer it reuses, so a scan
// allocates only when a frame is longer than every frame before it.
type frameReader struct{ buf []byte }

// read reads and validates one record frame at off, returning the
// payload, type and frame length. ok=false marks a torn/corrupt frame.
// The payload aliases the reader's buffer: it is valid until the next
// read.
func (r *frameReader) read(seg Segment, off, size int64) (payload []byte, typ RecordType, n int64, ok bool) {
	if off+frameHeaderSize > size {
		return nil, 0, 0, false
	}
	r.buf = slices.Grow(r.buf[:0], frameHeaderSize)[:frameHeaderSize]
	if _, err := seg.ReadAt(r.buf, off); err != nil {
		return nil, 0, 0, false
	}
	plen := binary.LittleEndian.Uint32(r.buf[4:8])
	if plen > maxRecordSize || off+frameHeaderSize+int64(plen) > size {
		return nil, 0, 0, false
	}
	r.buf = slices.Grow(r.buf, int(plen))[:frameHeaderSize+int(plen)]
	frame := r.buf
	if _, err := seg.ReadAt(frame, off); err != nil {
		return nil, 0, 0, false
	}
	stored := binary.LittleEndian.Uint32(frame[:4])
	if crc32.ChecksumIEEE(frame[4:]) != stored {
		return nil, 0, 0, false
	}
	return frame[frameHeaderSize:], RecordType(frame[8]), int64(len(frame)), true
}

// createSegment makes seq the active segment with the given base LSN.
func (l *Log) createSegment(seq uint32, base LSN) error {
	seg, err := l.st.Create(seq)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(base))
	if err := seg.Append(hdr[:]); err != nil {
		seg.Close()
		return err
	}
	l.cur = seg
	l.curSize = segHeaderSize
	l.segs = append(l.segs, segInfo{seq: seq, base: base})
	return nil
}

// FrameSize returns the framed size of a record with the given payload
// length; lsn + FrameSize(len(payload)) is the LSN just past a record,
// which is what recovery hands TruncateTo to drop an uncommitted tail.
func FrameSize(payloadLen int) LSN { return LSN(frameHeaderSize + payloadLen) }

// NextLSN returns the LSN the next appended record will get. The engine
// stamps it into page headers before logging the page image.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// DurableLSN returns the highest LSN known to be durable: every record
// with start LSN below it has been synced to storage. Lock-free — the
// buffer pool's eviction path reads it on every dirty-victim check.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// LastCheckpointLSN returns the LSN of the most recent checkpoint
// record, or 0 if none has been written.
func (l *Log) LastCheckpointLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:      l.records.Load(),
		BytesLogged:  l.bytesLogged.Load(),
		Syncs:        l.syncs.Load(),
		Checkpoints:  l.checkpoints.Load(),
		SegmentRolls: l.segmentRolls.Load(),
	}
}

// Append frames a record whose payload is the concatenation of parts
// into the append buffer and returns its LSN. The parts are copied
// straight into the buffer, so a caller can log a page as its id and
// its bytes without joining them first; the frame is byte for byte the
// one a single joined payload gets. Append keeps no reference to parts.
//
// The record is not durable until Sync returns; a crash before that
// loses it (and recovery discards the whole uncommitted group, see
// RecCommit). The buffer is bounded: when a record would grow it past
// appendBufferLimit, Append first writes the buffered frames to the
// active segment without syncing. DurableLSN still moves only at Sync.
func (l *Log) Append(typ RecordType, parts ...[]byte) (LSN, error) {
	plen := 0
	for _, p := range parts {
		plen += len(p)
	}
	if plen > maxRecordSize {
		return 0, fmt.Errorf("%w: %d bytes", errTooLarge, plen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	frame := frameHeaderSize + plen
	// Roll to a fresh segment when this record would overflow the
	// current one (records never span segments).
	if l.curSize > segHeaderSize && l.curSize+int64(frame) > l.segLimit {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}
	if len(l.buf) > 0 && len(l.buf)+frame > appendBufferLimit {
		if err := l.cur.Append(l.buf); err != nil {
			return 0, l.fail(err)
		}
		l.buf = l.buf[:0]
	}
	lsn := l.nextLSN
	// The CRC is computed over the buffered frame, not over hdr and
	// parts: crc32 calls through a function value, which would move
	// every slice it is handed to the heap.
	start := len(l.buf)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(plen))
	hdr[8] = byte(typ)
	binary.LittleEndian.PutUint64(hdr[9:], uint64(lsn))
	l.buf = append(l.buf, hdr[:]...)
	for _, p := range parts {
		l.buf = append(l.buf, p...)
	}
	binary.LittleEndian.PutUint32(l.buf[start:], crc32.ChecksumIEEE(l.buf[start+4:]))
	l.curSize += int64(frame)
	l.nextLSN += LSN(frame)
	l.records.Add(1)
	l.bytesLogged.Add(uint64(frame))
	return lsn, nil
}

// usableLocked returns errClosed on a closed log and the stored storage
// error on a failed one. Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return errClosed
	}
	return l.err
}

// fail records err as the log's first storage error, failing the log,
// and returns the stored error. Caller holds l.mu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: log failed, reopen to recover: %w", err)
	}
	return l.err
}

// rollLocked syncs and closes the current segment and opens the next
// one. Caller holds l.mu.
func (l *Log) rollLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return l.fail(err)
	}
	next := l.segs[len(l.segs)-1].seq + 1
	l.segmentRolls.Add(1)
	if err := l.createSegment(next, l.nextLSN); err != nil {
		return l.fail(err)
	}
	return nil
}

// Sync flushes the append buffer and makes every appended record
// durable. This is the commit point: DurableLSN advances to NextLSN.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked writes what is left in the buffer, fsyncs the active
// segment and advances DurableLSN to NextLSN. A failure fails the log:
// the fsync is never retried, because a retry that succeeds says nothing
// about the bytes the failed one dropped. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	if uint64(l.nextLSN) <= l.durable.Load() {
		return nil // an earlier sync already covered every record
	}
	if len(l.buf) > 0 {
		if err := l.cur.Append(l.buf); err != nil {
			return l.fail(err)
		}
		l.buf = l.buf[:0]
	}
	start := time.Now()
	err := l.cur.Sync()
	l.syncLatency.Observe(time.Since(start))
	if err != nil {
		return l.fail(err)
	}
	l.durable.Store(uint64(l.nextLSN))
	l.syncs.Add(1)
	return nil
}

// Checkpoint appends a checkpoint record, syncs, and prunes every
// segment that lies entirely before the checkpoint — those records can
// never be replayed again, because recovery starts at the last
// checkpoint.
func (l *Log) Checkpoint(payload []byte) (LSN, error) {
	lsn, err := l.Append(RecCheckpoint, payload)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	l.lastCkpt = lsn
	l.checkpoints.Add(1)
	// Prune segments whose successor starts at or before the checkpoint:
	// every record in them precedes the checkpoint record.
	keep := 0
	for keep < len(l.segs)-1 && l.segs[keep+1].base <= lsn {
		keep++
	}
	for _, s := range l.segs[:keep] {
		_ = l.st.Remove(s.seq)
	}
	l.segs = append([]segInfo(nil), l.segs[keep:]...)
	return lsn, nil
}

// Recover replays the durable record stream starting at the last
// checkpoint record (or the log's beginning if none), invoking fn for
// every record in LSN order. It reads only synced storage; call it
// after Open and before appending. Every record is read into one buffer
// that Recover reuses: payload is valid only until fn returns, and fn
// must copy what it keeps.
func (l *Log) Recover(fn func(lsn LSN, typ RecordType, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	start := l.lastCkpt
	end := l.nextLSN
	cur := l.cur
	l.mu.Unlock()
	var r frameReader
	for i, si := range segs {
		segEnd := end
		if i < len(segs)-1 {
			segEnd = segs[i+1].base
		}
		if segEnd <= start {
			continue
		}
		seg, err := l.st.Open(si.seq)
		if err != nil {
			return err
		}
		// The active segment may come back as the same handle (MemStorage)
		// or a second one (DirStorage); only a distinct handle is ours to
		// close.
		closeSeg := func() {
			if seg != cur {
				seg.Close()
			}
		}
		size := segHeaderSize + int64(segEnd-si.base)
		off := int64(segHeaderSize)
		lsn := si.base
		for off < size {
			payload, typ, n, ok := r.read(seg, off, size)
			if !ok {
				if i < len(segs)-1 {
					closeSeg()
					return fmt.Errorf("wal: corrupt record at lsn %d in non-final segment %d", lsn, si.seq)
				}
				break
			}
			if lsn >= start {
				if err := fn(lsn, typ, payload); err != nil {
					closeSeg()
					return err
				}
			}
			off += n
			lsn += LSN(n)
		}
		closeSeg()
	}
	return nil
}

// TruncateTo discards every record whose start LSN is >= lsn — the
// engine calls this after recovery to drop an uncommitted tail (records
// appended but not followed by a commit record before the crash), so
// fresh appends cannot merge with half-a-statement of old ones.
func (l *Log) TruncateTo(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if lsn >= l.nextLSN {
		return nil
	}
	if len(l.buf) > 0 {
		return fmt.Errorf("wal: TruncateTo with buffered appends")
	}
	// Find the segment containing lsn and drop everything after.
	idx := len(l.segs) - 1
	for idx > 0 && l.segs[idx].base > lsn {
		idx--
	}
	if l.segs[idx].base > lsn {
		return fmt.Errorf("wal: truncate target %d precedes the log", lsn)
	}
	for _, s := range l.segs[idx+1:] {
		_ = l.st.Remove(s.seq)
	}
	l.segs = l.segs[:idx+1]
	l.cur.Close()
	seg, err := l.st.Open(l.segs[idx].seq)
	if err != nil {
		return l.fail(err)
	}
	newSize := segHeaderSize + int64(lsn-l.segs[idx].base)
	if err := seg.Truncate(newSize); err != nil {
		seg.Close()
		return l.fail(err)
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return l.fail(err)
	}
	l.cur = seg
	l.curSize = newSize
	l.nextLSN = lsn
	l.durable.Store(uint64(lsn))
	if l.lastCkpt >= lsn {
		l.lastCkpt = 0
	}
	return nil
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes and syncs the buffer and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}
