// Package pages mocks the pool's locks for the latchorder tests: the
// snapshot-tag mutex (snapMu) ranks above the lock stripes, because a
// version-retirement check reads the live tags under a stripe lock.
package pages

import "sync"

type Frame struct{}

type shard struct {
	mu sync.Mutex
}

type BufferPool struct {
	snapMu sync.Mutex
	shards []shard
}

func (bp *BufferPool) Fetch(id uint64) (*Frame, error) { return &Frame{}, nil }
func (bp *BufferPool) Unpin(f *Frame, dirty bool)      {}

// FinishPublish ticks the clock under snapMu, then re-checks a stripe.
func (bp *BufferPool) FinishPublish(tag uint64) {
	bp.snapMu.Lock()
	defer bp.snapMu.Unlock()
	bp.lockShard(&bp.shards[0])
}

func (bp *BufferPool) lockShard(s *shard) {
	s.mu.Lock()
	s.mu.Unlock()
}

func (bp *BufferPool) lockSnap() {
	bp.snapMu.Lock()
	bp.snapMu.Unlock()
}

// bad: re-entering the stripe level while a stripe is held self-deadlocks.
func (bp *BufferPool) badNested(s *shard) {
	s.mu.Lock()
	bp.lockShard(s) // want `call may acquire pool shard\.mu while pool shard\.mu is held`
	s.mu.Unlock()
}

// good: strictly sequential stripe use.
func (bp *BufferPool) goodSequential(a, b *shard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// bad: the tag mutex taken under a stripe.
func (bp *BufferPool) badSnapUnderStripe(s *shard) {
	s.mu.Lock()
	bp.snapMu.Lock() // want `acquiring pool snapMu while holding pool shard\.mu violates the latch order`
	bp.snapMu.Unlock()
	s.mu.Unlock()
}

// bad: the same inversion behind a call — an unpin that retires a
// version while still holding its stripe.
func (bp *BufferPool) badRetireUnderStripe(s *shard) {
	s.mu.Lock()
	bp.lockSnap() // want `call may acquire pool snapMu while pool shard\.mu is held`
	s.mu.Unlock()
}

// good: release the stripe, then take the tag mutex and the stripe in
// order.
func (bp *BufferPool) goodRetireAfterUnlock(s *shard) {
	s.mu.Lock()
	s.mu.Unlock()
	bp.snapMu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	bp.snapMu.Unlock()
}
