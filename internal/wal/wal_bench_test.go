package wal

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures raw append throughput into the append
// buffer (the per-record cost a DML statement pays per
// dirtied page) and the append+sync cycle (the full per-statement
// durability cost), for a page-image-sized payload.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 8196) // page image + id prefix

	for _, sync := range []bool{false, true} {
		name := "buffered"
		if sync {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			l, err := Open(NewMemStorage(), Options{SegmentSize: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(RecPageImage, payload); err != nil {
					b.Fatal(err)
				}
				if sync {
					if err := l.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWALGroupCommit batches k appends per sync, showing what the
// append buffer buys over sync-per-record.
func BenchmarkWALGroupCommit(b *testing.B) {
	payload := make([]byte, 8196)
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch%d", k), func(b *testing.B) {
			l, err := Open(NewMemStorage(), Options{SegmentSize: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)) * int64(k))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					if _, err := l.Append(RecPageImage, payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
