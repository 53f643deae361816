package pages

import (
	"sync"
	"time"
)

// ThrottledDisk wraps a DiskManager with a fixed-bandwidth transfer
// model: every page read or write reserves PageSize bytes of a single
// serial channel and sleeps until its reserved transfer window ends.
// Concurrent requests queue behind one another the way they would on a
// saturated device, so benchmarks over a ThrottledDisk see wall-clock
// costs proportional to bytes moved — the regime the paper's
// spinning-disk-era measurements assume — instead of the memcpy speed
// of MemDisk, which makes I/O-volume optimizations invisible.
type ThrottledDisk struct {
	inner   DiskManager
	perPage time.Duration

	mu   sync.Mutex
	next time.Time // end of the latest reserved transfer window
}

// NewThrottledDisk wraps inner, limiting page transfers to
// bytesPerSecond in each direction combined. A non-positive rate
// disables throttling.
func NewThrottledDisk(inner DiskManager, bytesPerSecond int64) *ThrottledDisk {
	var perPage time.Duration
	if bytesPerSecond > 0 {
		perPage = time.Duration(int64(PageSize) * int64(time.Second) / bytesPerSecond)
	}
	return &ThrottledDisk{inner: inner, perPage: perPage}
}

// reserve claims the next perPage-wide transfer window. The sleep is
// deferred until at least a millisecond of transfer debt has built up:
// a per-page sleep of a few dozen microseconds would be rounded up to
// the scheduler's wakeup granularity and inflate the modelled cost by
// an order of magnitude, whereas batching keeps the long-run rate at
// the configured bandwidth.
func (d *ThrottledDisk) reserve() {
	if d.perPage <= 0 {
		return
	}
	now := time.Now()
	d.mu.Lock()
	if d.next.Before(now) {
		d.next = now
	}
	d.next = d.next.Add(d.perPage)
	deadline := d.next
	d.mu.Unlock()
	if wait := time.Until(deadline); wait > time.Millisecond {
		time.Sleep(wait)
	}
}

// ReadPage implements DiskManager.
func (d *ThrottledDisk) ReadPage(id PageID, buf []byte) error {
	d.reserve()
	return d.inner.ReadPage(id, buf)
}

// WritePage implements DiskManager.
func (d *ThrottledDisk) WritePage(id PageID, buf []byte) error {
	d.reserve()
	return d.inner.WritePage(id, buf)
}

// Allocate implements DiskManager. Allocation is metadata, not a
// transfer; it is not throttled.
func (d *ThrottledDisk) Allocate() (PageID, error) { return d.inner.Allocate() }

// NumPages implements DiskManager.
func (d *ThrottledDisk) NumPages() int { return d.inner.NumPages() }

// Sync implements DiskManager. An fsync moves no page; it is not
// throttled.
func (d *ThrottledDisk) Sync() error { return d.inner.Sync() }

// Close implements DiskManager.
func (d *ThrottledDisk) Close() error { return d.inner.Close() }
