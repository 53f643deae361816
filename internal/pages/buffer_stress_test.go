package pages

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestShardedPoolBasicContract runs the pool's Fetch/Unpin/eviction
// contract over three times more pages than a 512-frame pool holds.
func TestShardedPoolBasicContract(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 512)
	ids := make([]PageID, 1600)
	for i := range ids {
		f, err := bp.NewPage(TypeData)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.Insert([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = f.Page.ID
		bp.Unpin(f, true)
	}
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch %d: %v", id, err)
		}
		rec, err := f.Page.Record(0)
		if err != nil || rec[0] != byte(i) || rec[1] != byte(i>>8) {
			t.Fatalf("page %d record = %v, %v", id, rec, err)
		}
		bp.Unpin(f, false)
	}
	if ev, pr := bp.stats.evictions.Load(), bp.stats.physicalReads.Load(); ev == 0 || pr == 0 {
		t.Errorf("expected evictions and physical reads, got %d evictions, %d physical reads", ev, pr)
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
	if err := bp.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers: %v", err)
	}
	if bp.CachedPages() != 0 {
		t.Errorf("CachedPages after drop = %d", bp.CachedPages())
	}
}

// TestShardedPoolConcurrentStress hammers the pool from many goroutines
// with interleaved Fetch / NewPage / Unpin / DropCleanBuffers and checks
// the pin-count and eviction invariants afterward. Run under -race it
// is the regression test for the lock discipline of the miss path,
// which reads a page with the pool's mutex released.
func TestShardedPoolConcurrentStress(t *testing.T) {
	d := NewMemDisk()
	bp := NewBufferPool(d, 512)

	// Seed a shared set of pages all workers fetch.
	const seedPages = 512
	ids := make([]PageID, seedPages)
	for i := range ids {
		f, err := bp.NewPage(TypeData)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = f.Page.ID
		bp.Unpin(f, true)
	}

	const workers = 16
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pinned := make([]*Frame, 0, 8)
			unpinAll := func() {
				for _, f := range pinned {
					bp.Unpin(f, false)
				}
				pinned = pinned[:0]
			}
			defer unpinAll()
			for op := 0; op < opsPerWorker; op++ {
				switch k := rng.Intn(100); {
				case k < 70: // fetch a shared page, sometimes holding the pin
					f, err := bp.Fetch(ids[rng.Intn(seedPages)])
					if err != nil {
						errc <- err
						return
					}
					if rec, err := f.Page.Record(0); err != nil || len(rec) != 1 {
						errc <- errors.New("corrupt record under concurrency")
						bp.Unpin(f, false)
						return
					}
					if len(pinned) < 8 && k < 20 {
						pinned = append(pinned, f)
					} else {
						bp.Unpin(f, false)
					}
				case k < 80: // allocate a fresh page, dirty it, release
					f, err := bp.NewPage(TypeData)
					if err != nil {
						errc <- err
						return
					}
					if _, err := f.Page.Insert([]byte{0xEE}); err != nil {
						errc <- err
						bp.Unpin(f, true)
						return
					}
					bp.Unpin(f, true)
				case k < 90: // release everything we hold
					unpinAll()
				default: // attempt a drop; only legal when nothing is pinned
					unpinAll()
					// Other workers may hold pins, so an error is expected
					// sometimes; it must be the pinned-page error, not a
					// corruption.
					if err := bp.DropCleanBuffers(); err != nil {
						if got := err.Error(); len(got) == 0 {
							errc <- errors.New("empty DropCleanBuffers error")
							return
						}
					}
				}
			}
		}(int64(w) + 42)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got := bp.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames after stress = %d, want 0", got)
	}
	if got := bp.CachedPages(); got > bp.Capacity() {
		t.Fatalf("CachedPages = %d exceeds capacity %d", got, bp.Capacity())
	}
	// With every pin released the pool must quiesce cleanly.
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatalf("DropCleanBuffers after stress: %v", err)
	}
	// All seed pages must still round-trip through disk.
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("post-stress Fetch %d: %v", id, err)
		}
		rec, err := f.Page.Record(0)
		if err != nil || rec[0] != byte(i) {
			t.Fatalf("post-stress page %d record = %v, %v", id, rec, err)
		}
		bp.Unpin(f, false)
	}
}

// TestShardedPoolStatsLockFree checks the atomic counters tally exactly
// under concurrent fetches: they are bumped outside the pool's mutex and
// must not lose increments.
func TestShardedPoolStatsLockFree(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 256)
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page.ID
	bp.Unpin(f, false)
	before := bp.stats.logicalReads.Load()

	const workers = 8
	const fetches = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fetches; i++ {
				f, err := bp.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				bp.Unpin(f, false)
			}
		}()
	}
	wg.Wait()
	if got := bp.stats.logicalReads.Load() - before; got != workers*fetches {
		t.Errorf("LogicalReads = %d, want %d", got, workers*fetches)
	}
}

// failingDisk wraps MemDisk and fails WritePage while tripped.
type failingDisk struct {
	*MemDisk
	failWrites bool
}

func (d *failingDisk) WritePage(id PageID, buf []byte) error {
	if d.failWrites {
		return errors.New("injected write failure")
	}
	return d.MemDisk.WritePage(id, buf)
}

// TestEvictionWriteBackFailureKeepsDirtyPage pins the recovery contract
// of a failed dirty-victim flush: the dirty page must stay cached (its
// only up-to-date copy lives in the frame), the caller gets the error,
// and once the disk recovers the data survives.
func TestEvictionWriteBackFailureKeepsDirtyPage(t *testing.T) {
	d := &failingDisk{MemDisk: NewMemDisk()}
	bp := NewBufferPool(d, 1)
	f, err := bp.NewPage(TypeData)
	if err != nil {
		t.Fatal(err)
	}
	dirtyID := f.Page.ID
	if _, err := f.Page.Insert([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)

	// Allocate a second page id while writes still work, then trip the
	// disk so evicting the dirty page must fail.
	id2, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	d.failWrites = true
	//lint:allow pinleak the fetch must fail on the unflushable victim and pins nothing
	if _, err := bp.Fetch(id2); err == nil {
		t.Fatal("Fetch must fail when the dirty victim cannot be flushed")
	}
	if got := bp.CachedPages(); got != 1 {
		t.Fatalf("CachedPages after failed eviction = %d, want 1 (dirty page retained)", got)
	}
	// The dirty page is still in cache with its modification intact.
	f, err = bp.Fetch(dirtyID)
	if err != nil {
		t.Fatalf("re-Fetch of retained dirty page: %v", err)
	}
	rec, err := f.Page.Record(0)
	if err != nil || string(rec) != "precious" {
		t.Fatalf("dirty page content lost: %q, %v", rec, err)
	}
	bp.Unpin(f, false)

	// Disk recovers: the eviction now succeeds and the data round-trips.
	d.failWrites = false
	f, err = bp.Fetch(id2)
	if err != nil {
		t.Fatalf("Fetch after disk recovery: %v", err)
	}
	bp.Unpin(f, false)
	f, err = bp.Fetch(dirtyID)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = f.Page.Record(0)
	if err != nil || string(rec) != "precious" {
		t.Fatalf("dirty page lost across recovered eviction: %q, %v", rec, err)
	}
	bp.Unpin(f, false)
}
