// Storage backends for the write-ahead log: a directory of segment
// files on a real filesystem, and an in-memory implementation whose
// sync boundary can be crash-simulated (everything appended after the
// last Sync vanishes), which is what the recovery tests are built on.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Storage is a directory of numbered log segments. Segment sequence
// numbers are dense and increasing; the log appends to the
// highest-numbered segment and prunes whole low-numbered segments once
// a checkpoint makes them unreachable.
type Storage interface {
	// List returns the existing segment sequence numbers in ascending
	// order.
	List() ([]uint32, error)
	// Open opens an existing segment for reading and appending.
	Open(seq uint32) (Segment, error)
	// Create creates a new, empty segment.
	Create(seq uint32) (Segment, error)
	// Remove deletes a segment (checkpoint pruning).
	Remove(seq uint32) error
}

// Segment is one log segment file.
type Segment interface {
	// ReadAt fills p with segment bytes starting at off.
	ReadAt(p []byte, off int64) (int, error)
	// Append writes p at the current end of the segment.
	Append(p []byte) error
	// Sync makes all appended bytes durable.
	Sync() error
	// Truncate discards bytes past size (torn-tail repair).
	Truncate(size int64) error
	// Size returns the current segment length in bytes.
	Size() (int64, error)
	// Close releases resources.
	Close() error
}

// ---- file-backed storage ------------------------------------------------

// DirStorage stores segments as files named wal-%08d.seg in one
// directory. Creating or removing a segment fsyncs the directory before
// it returns: a segment's fsynced records are durable only once its
// directory entry is.
type DirStorage struct {
	dir     string
	syncDir func(dir string) error // fsyncs the directory; tests replace it
}

// NewDirStorage creates (if necessary) and opens a log directory. The
// directories it creates are made durable before it returns: each one
// and the parent of the outermost are fsynced, so a power loss cannot
// drop the log directory with the segments later fsynced into it.
func NewDirStorage(dir string) (*DirStorage, error) { return newDirStorage(dir, syncDir) }

// newDirStorage is NewDirStorage with the directory fsync as a
// parameter, so tests can observe and fail it.
func newDirStorage(dir string, sync func(dir string) error) (*DirStorage, error) {
	dir = filepath.Clean(dir)
	var missing []string // outermost first
	for p := dir; ; p = filepath.Dir(p) {
		if _, err := os.Stat(p); !os.IsNotExist(err) || p == filepath.Dir(p) {
			break
		}
		missing = append([]string{p}, missing...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	if len(missing) > 0 {
		for _, d := range append([]string{filepath.Dir(missing[0])}, missing...) {
			if err := sync(d); err != nil {
				return nil, fmt.Errorf("wal: sync directory %s: %w", d, err)
			}
		}
	}
	return &DirStorage{dir: dir, syncDir: sync}, nil
}

// syncDir fsyncs directory dir, making the entries created in it or
// removed from it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	return err
}

func (d *DirStorage) segPath(seq uint32) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// List implements Storage.
func (d *DirStorage) List() ([]uint32, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", d.dir, err)
	}
	var seqs []uint32
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := strconv.ParseUint(name[4:len(name)-4], 10, 32)
		if err != nil {
			continue
		}
		seqs = append(seqs, uint32(n))
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open implements Storage.
func (d *DirStorage) Open(seq uint32) (Segment, error) {
	f, err := os.OpenFile(d.segPath(seq), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	return &fileSegment{f: f}, nil
}

// Create implements Storage.
func (d *DirStorage) Create(seq uint32) (Segment, error) {
	f, err := os.OpenFile(d.segPath(seq), os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment %d: %w", seq, err)
	}
	if err := d.syncDir(d.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create segment %d: sync %s: %w", seq, d.dir, err)
	}
	return &fileSegment{f: f}, nil
}

// Remove implements Storage.
func (d *DirStorage) Remove(seq uint32) error {
	if err := os.Remove(d.segPath(seq)); err != nil {
		return err
	}
	if err := d.syncDir(d.dir); err != nil {
		return fmt.Errorf("wal: remove segment %d: sync %s: %w", seq, d.dir, err)
	}
	return nil
}

// fileSegment is a segment file opened with O_APPEND, so every write
// lands at the file's current end, a truncated one included.
type fileSegment struct{ f *os.File }

func (s *fileSegment) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

func (s *fileSegment) Append(p []byte) error {
	_, err := s.f.Write(p)
	return err
}

func (s *fileSegment) Sync() error               { return s.f.Sync() }
func (s *fileSegment) Truncate(size int64) error { return s.f.Truncate(size) }
func (s *fileSegment) Close() error              { return s.f.Close() }
func (s *fileSegment) Size() (int64, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---- in-memory storage with crash simulation ----------------------------

// MemStorage keeps segments in memory and tracks, per segment, how many
// bytes have been Sync'd. Crash() rolls every segment back to its synced
// prefix — the moral equivalent of the machine losing power with the OS
// page cache unflushed — so recovery tests can assert exactly which
// records survive.
//
// A segment's bytes live in fixed-size slabs (memSlabSize), so an append
// copies its bytes once and never re-copies what the segment already
// holds. ReadAt, Truncate, Crash and CorruptTail act on the segment's
// logical length; bytes a cut leaves in a slab are overwritten by the
// next append.
type MemStorage struct {
	mu   sync.Mutex
	segs map[uint32]*memSegment
}

// memSlabSize is the size of one MemStorage slab.
const memSlabSize = 64 << 10

// NewMemStorage returns an empty in-memory log directory.
func NewMemStorage() *MemStorage {
	return &MemStorage{segs: make(map[uint32]*memSegment)}
}

// Crash discards all bytes appended after each segment's last Sync.
// Any Log currently attached to the storage must be abandoned; reopen
// with Open to recover.
func (m *MemStorage) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.segs {
		s.mu.Lock()
		s.cut(s.synced)
		s.mu.Unlock()
	}
}

// CorruptTail overwrites the last n durable bytes of the highest
// segment with garbage, simulating a torn record write that made it to
// the platter half-way. Recovery must detect it via the record CRC.
func (m *MemStorage) CorruptTail(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var top *memSegment
	var topSeq uint32
	for seq, s := range m.segs {
		if top == nil || seq >= topSeq {
			top, topSeq = s, seq
		}
	}
	if top == nil {
		return
	}
	top.mu.Lock()
	defer top.mu.Unlock()
	for i := max(top.size-n, 0); i < top.size; i++ {
		top.slabs[i/memSlabSize][i%memSlabSize] ^= 0xA5
	}
}

// List implements Storage.
func (m *MemStorage) List() ([]uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs := make([]uint32, 0, len(m.segs))
	for seq := range m.segs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open implements Storage.
func (m *MemStorage) Open(seq uint32) (Segment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[seq]
	if !ok {
		return nil, fmt.Errorf("wal: no segment %d", seq)
	}
	return s, nil
}

// Create implements Storage.
func (m *MemStorage) Create(seq uint32) (Segment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.segs[seq]; ok {
		return nil, fmt.Errorf("wal: segment %d exists", seq)
	}
	s := &memSegment{}
	m.segs[seq] = s
	return s, nil
}

// Remove implements Storage.
func (m *MemStorage) Remove(seq uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.segs, seq)
	return nil
}

// memSegment is one in-memory segment: size logical bytes held in
// memSlabSize slabs, the first synced of them durable.
type memSegment struct {
	mu     sync.Mutex
	slabs  [][]byte
	size   int
	synced int
}

// cut shrinks the segment to size bytes and releases the slabs wholly
// past it. Caller holds s.mu.
func (s *memSegment) cut(size int) {
	if size >= s.size {
		return
	}
	s.size = size
	keep := (size + memSlabSize - 1) / memSlabSize
	clear(s.slabs[keep:])
	s.slabs = s.slabs[:keep]
	s.synced = min(s.synced, size)
}

func (s *memSegment) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off >= int64(s.size) {
		return 0, fmt.Errorf("wal: read past segment end")
	}
	n := 0
	for n < len(p) && int(off)+n < s.size {
		i := int(off) + n
		base := i - i%memSlabSize // segment offset of the slab's first byte
		n += copy(p[n:], s.slabs[i/memSlabSize][i-base:min(memSlabSize, s.size-base)])
	}
	if n < len(p) {
		return n, fmt.Errorf("wal: short segment read")
	}
	return n, nil
}

func (s *memSegment) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		i := s.size / memSlabSize
		if i == len(s.slabs) {
			s.slabs = append(s.slabs, make([]byte, memSlabSize))
		}
		n := copy(s.slabs[i][s.size%memSlabSize:], p)
		s.size += n
		p = p[n:]
	}
	return nil
}

func (s *memSegment) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = s.size
	return nil
}

func (s *memSegment) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut(int(size))
	return nil
}

func (s *memSegment) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.size), nil
}

func (s *memSegment) Close() error { return nil }
