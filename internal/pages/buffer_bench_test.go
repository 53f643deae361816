package pages

import (
	"fmt"
	"sync"
	"testing"
)

// benchPool builds a pool of the given capacity and a working set of
// hot pages all goroutines hammer.
func benchPool(b *testing.B, capacity, pagesN int) (*BufferPool, []PageID) {
	b.Helper()
	bp := NewBufferPool(NewMemDisk(), capacity)
	ids := make([]PageID, pagesN)
	for i := range ids {
		f, err := bp.NewPage(TypeData)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = f.Page.ID
		bp.Unpin(f, false)
	}
	return bp, ids
}

// BenchmarkBufferPoolContention measures aggregate Fetch/Unpin
// throughput with goroutines hammering a cached working set — the shape
// of the parallel aggregate scan's page traffic — through the pool's one
// lock.
func BenchmarkBufferPoolContention(b *testing.B) {
	const capacity = 4096
	const hotPages = 1024
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			bp, ids := benchPool(b, capacity, hotPages)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Stride so goroutines walk different pages and the
					// contention measured is lock traffic, not one hot
					// frame.
					i := w * 37
					for n := 0; n < per; n++ {
						f, err := bp.Fetch(ids[i%hotPages])
						if err != nil {
							b.Error(err)
							return
						}
						bp.Unpin(f, false)
						i += 7
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if got := bp.PinnedFrames(); got != 0 {
				b.Fatalf("leaked pins: %d", got)
			}
		})
	}
}

// BenchmarkBufferPoolFetchMiss measures the cold path (evicting fetches):
// the miss loader plus the victim scan.
func BenchmarkBufferPoolFetchMiss(b *testing.B) {
	// Pool much smaller than the page set: every wrap evicts.
	bp, ids := benchPool(b, 256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := bp.Fetch(ids[(i*61)%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(f, false)
	}
}
