package pages

import (
	"fmt"
	"os"
	"sync"
)

// DiskManager abstracts the backing store of a database file: a flat array
// of 8 kB pages addressed by PageID. Page 0 exists but is reserved for
// metadata, so the first Allocate returns page 1.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with page id's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as page id's contents.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the file by one page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the current file length in pages (including page 0).
	NumPages() int
	// Sync makes every completed WritePage and Allocate durable (fsync).
	// A checkpoint calls it before logging that the pages are on disk.
	Sync() error
	// Close releases resources.
	Close() error
}

// MemDisk is an in-memory DiskManager, the default for tests and
// benchmarks. It is safe for concurrent use.
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory database file (page 0 allocated).
func NewMemDisk() *MemDisk {
	return &MemDisk{pages: [][]byte{make([]byte, PageSize)}}
}

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfBounds, id, len(d.pages))
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfBounds, id, len(d.pages))
	}
	copy(d.pages[id], buf)
	return nil
}

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Sync implements DiskManager; memory has nothing to make durable.
func (d *MemDisk) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a file-backed DiskManager.
type FileDisk struct {
	mu    sync.Mutex
	f     *os.File
	count int
}

// OpenFileDisk opens (or creates) a database file. A new file gets its
// reserved page 0 immediately.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pages: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pages: stat %s: %w", path, err)
	}
	d := &FileDisk{f: f, count: int(st.Size() / PageSize)}
	if d.count == 0 {
		zero := make([]byte, PageSize)
		if _, err := f.WriteAt(zero, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("pages: init %s: %w", path, err)
		}
		d.count = 1
	}
	return d, nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	n := d.count
	d.mu.Unlock()
	if int(id) >= n {
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfBounds, id, n)
	}
	if _, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pages: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	n := d.count
	d.mu.Unlock()
	if int(id) >= n {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfBounds, id, n)
	}
	if _, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pages: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.count)
	zero := make([]byte, PageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("pages: extend to page %d: %w", id, err)
	}
	d.count++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Sync implements DiskManager: it fsyncs the file.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }
