package sqlmini

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkScanVsRangeScan shows the key-range pushdown win: both
// queries count the same 100 rows, but the filter variant scans every
// leaf page while the sargable variant descends straight to the range.
func BenchmarkScanVsRangeScan(b *testing.B) {
	db := wideDB(b, 20000)
	run := func(b *testing.B, q string) {
		b.Helper()
		b.ReportAllocs()
		before := metric(b, db.Metrics(), "pages.logical_reads")
		for i := 0; i < b.N; i++ {
			res, err := Run(db, q)
			if err != nil {
				b.Fatal(err)
			}
			if v, _ := res.Scalar(); v.I != 100 {
				b.Fatalf("count = %v", v)
			}
		}
		b.ReportMetric(float64(metric(b, db.Metrics(), "pages.logical_reads")-before)/float64(b.N), "pages/op")
	}
	b.Run("FullScanFilter", func(b *testing.B) {
		// v1 mirrors id, so this is the same predicate — minus pushdown.
		run(b, "SELECT COUNT(*) FROM T WHERE v1 >= 10000 AND v1 < 10100")
	})
	b.Run("KeyRangeScan", func(b *testing.B) {
		run(b, "SELECT COUNT(*) FROM T WHERE id >= 10000 AND id < 10100")
	})
}

// BenchmarkPipelineBatch is the executor's headline number: ns per
// scanned row, serial (Parallelism 1), on the shapes the paper's
// workloads are dominated by — full-scan aggregates and filter-heavy
// scans over 100k rows — plus LowSelWideProject, the shape that pays the
// early-materialization tax (1 % selectivity, but the scan copies every
// row's 100-byte pad into the batch before the filter runs). That one is
// the baseline for late materialization; see ARCHITECTURE.md.
func BenchmarkPipelineBatch(b *testing.B) {
	const rows = 100000
	db := wideDB(b, rows)
	cases := []struct {
		name string
		q    string
	}{
		{"AggScan", "SELECT SUM(v1), COUNT(*) FROM T"},
		{"FilterAgg", "SELECT SUM(v1) FROM T WHERE v2 >= 50"},
		{"FilterProject", "SELECT id, v1 + v2 FROM T WHERE v2 < 50"},
		{"LowSelWideProject", "SELECT id, v1, v2, pad FROM T WHERE v2 < 1"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWith(db, c.q, ExecOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkParallelAggregate compares the serial aggregate scan against
// the partitioned parallel one on all available cores.
func BenchmarkParallelAggregate(b *testing.B) {
	db := wideDB(b, 100000)
	const q = "SELECT SUM(v1), MIN(v2), MAX(v2), COUNT(*) FROM T"
	bench := func(opts ExecOptions) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWith(db, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Serial", bench(ExecOptions{Parallelism: 1}))
	workers := runtime.GOMAXPROCS(0)
	b.Run(fmt.Sprintf("Parallel-%d", workers),
		bench(ExecOptions{Parallelism: workers, parallelThreshold: 1}))
}

// BenchmarkMixedScanDML measures reader throughput with zero and one
// concurrent writers — the tentpole's claim made measurable. Scans ride
// snapshots instead of a table latch, so the one-writer variant should
// stay in the same ballpark as the read-only one (the writer costs CPU
// and copy-on-write page copies, never reader blocking); before the
// snapshot work the reader and writer serialized on the table latch.
func BenchmarkMixedScanDML(b *testing.B) {
	const rows = 50000
	const q = "SELECT SUM(v1), COUNT(*) FROM T WHERE v2 >= 10"
	for _, writers := range []int{0, 1} {
		b.Run(fmt.Sprintf("Writers-%d", writers), func(b *testing.B) {
			db := wideDB(b, rows)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var writerErr atomic.Pointer[error]
			var commits atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						lo := (i * 500) % rows
						if _, err := Execute(db, fmt.Sprintf(
							"UPDATE T SET v1 = v1 + 1 WHERE id >= %d AND id < %d", lo, lo+500)); err != nil {
							writerErr.Store(&err)
							return
						}
						commits.Add(1)
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunWith(db, q, ExecOptions{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][1].I != 44840 { // rows with id%97 >= 10 (v2 mirrors id%97)
					b.Fatalf("count = %v", res.Rows[0][1].I)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			if ep := writerErr.Load(); ep != nil {
				b.Fatalf("writer: %v", *ep)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			if writers > 0 {
				b.ReportMetric(float64(commits.Load())/float64(b.N), "commits/op")
			}
		})
	}
}
