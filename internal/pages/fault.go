package pages

import (
	"errors"
	"fmt"
	"sync"
)

// errInjected is the error a FaultDisk returns once its fault fires.
var errInjected = errors.New("pages: injected disk fault")

// FaultDisk wraps a DiskManager with crash-injection hooks for the
// recovery test harness: it can fail after a configured number of page
// writes, optionally tearing the failing write (persisting only the
// first half of the page — the classic torn-page failure a sector-level
// atomic disk cannot produce but a full 8 kB page write can). After the
// first failure every subsequent write, allocation and Sync fails too,
// modelling a machine that has crashed; reads keep working so the
// post-mortem can inspect what reached the platter.
type FaultDisk struct {
	inner DiskManager
	mu    sync.Mutex
	armed bool
	left  int  // writes remaining before the fault fires
	torn  bool // tear the failing write instead of dropping it
	fired bool
	wrote int // total WritePage calls observed
}

// NewFaultDisk wraps inner with fault hooks disarmed.
func NewFaultDisk(inner DiskManager) *FaultDisk {
	return &FaultDisk{inner: inner}
}

// FailAfterWrites arms the fault: the next n WritePage calls succeed,
// then the following one fails. With torn=true the failing write
// persists only the first half of the page before failing.
func (d *FaultDisk) FailAfterWrites(n int, torn bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed, d.left, d.torn, d.fired = true, n, torn, false
}

// Heal disarms the fault and clears the crashed state, modelling the
// machine coming back up over the same platter contents.
func (d *FaultDisk) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed, d.fired = false, false
}

// Fired reports whether the injected fault has triggered.
func (d *FaultDisk) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// Writes returns the total number of WritePage calls observed, so tests
// can aim FailAfterWrites at a specific write in a replayed workload.
func (d *FaultDisk) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wrote
}

// ReadPage implements DiskManager.
func (d *FaultDisk) ReadPage(id PageID, buf []byte) error { return d.inner.ReadPage(id, buf) }

// WritePage implements DiskManager, applying the armed fault.
func (d *FaultDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	d.wrote++
	if d.fired {
		d.mu.Unlock()
		return fmt.Errorf("%w: disk crashed", errInjected)
	}
	if d.armed && d.left <= 0 {
		d.fired = true
		torn := d.torn
		d.mu.Unlock()
		if torn {
			// Persist the first half only: read-modify-write so the
			// second half keeps its previous contents, exactly what a
			// power cut mid-write leaves behind.
			old := make([]byte, PageSize)
			if err := d.inner.ReadPage(id, old); err == nil {
				copy(old[:PageSize/2], buf[:PageSize/2])
				_ = d.inner.WritePage(id, old)
			}
		}
		return fmt.Errorf("%w: write of page %d failed", errInjected, id)
	}
	if d.armed {
		d.left--
	}
	d.mu.Unlock()
	return d.inner.WritePage(id, buf)
}

// Allocate implements DiskManager.
func (d *FaultDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	fired := d.fired
	d.mu.Unlock()
	if fired {
		return 0, fmt.Errorf("%w: disk crashed", errInjected)
	}
	return d.inner.Allocate()
}

// Sync implements DiskManager, failing like a write once the fault has
// fired.
func (d *FaultDisk) Sync() error {
	d.mu.Lock()
	fired := d.fired
	d.mu.Unlock()
	if fired {
		return fmt.Errorf("%w: disk crashed", errInjected)
	}
	return d.inner.Sync()
}

// NumPages implements DiskManager.
func (d *FaultDisk) NumPages() int { return d.inner.NumPages() }

// Close implements DiskManager.
func (d *FaultDisk) Close() error { return d.inner.Close() }
