// Package pages mocks the pool's lock for the latchorder tests: one
// mutex guards the pool, and the miss path drops it for the disk read
// and takes it back.
package pages

import "sync"

type Frame struct{}

type BufferPool struct {
	mu sync.Mutex
}

// good: loadLocked hands the caller's mutex back, it does not nest it.
func (bp *BufferPool) Fetch(id uint64) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.loadLocked(id)
}

// loadLocked releases the mutex its caller holds for the read and takes
// it back.
func (bp *BufferPool) loadLocked(id uint64) (*Frame, error) {
	bp.mu.Unlock()
	f := &Frame{}
	bp.mu.Lock()
	return f, nil
}

func (bp *BufferPool) Unpin(f *Frame, dirty bool) {}

// FinishPublish ticks the clock and retires versions under the mutex.
func (bp *BufferPool) FinishPublish(tag uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
}

func (bp *BufferPool) lock() {
	bp.mu.Lock()
	bp.mu.Unlock()
}

// bad: re-entering the pool mutex while holding it self-deadlocks.
func (bp *BufferPool) badNested() {
	bp.mu.Lock()
	bp.lock() // want `call may acquire pool mu while pool mu is held`
	bp.mu.Unlock()
}

// bad: the same, taken directly.
func (bp *BufferPool) badRelock() {
	bp.mu.Lock()
	bp.mu.Lock() // want `acquiring pool mu while holding pool mu violates the latch order`
	bp.mu.Unlock()
	bp.mu.Unlock()
}

// good: strictly sequential use.
func (bp *BufferPool) goodSequential() {
	bp.mu.Lock()
	bp.mu.Unlock()
	bp.mu.Lock()
	bp.mu.Unlock()
}

// lockThenDeferUnlock takes the mutex; its deferred unlock runs at exit,
// so it releases nothing before the Lock.
func (bp *BufferPool) lockThenDeferUnlock() {
	defer bp.mu.Unlock()
	bp.mu.Lock()
}

// bad: a deferred unlock does not make a lock a hand-back.
func (bp *BufferPool) badDeferredHandBack() {
	bp.mu.Lock()
	bp.lockThenDeferUnlock() // want `call may acquire pool mu while pool mu is held`
	bp.mu.Unlock()
}
