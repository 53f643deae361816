package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := New()
	var c Counter
	r.Attach("x.count", &c)
	c.Inc()
	c.Add(4)
	if got := r.Snapshot().Get("x.count"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	r.AttachGauge("x.open", &g)
	g.Inc()
	g.Inc()
	g.Dec()
	if got := r.Snapshot().Get("x.open"); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
}

// TestMultiAttachSums is the property the partitioned-store .stats fix
// rides on: several owners attached under one name read as one series.
func TestMultiAttachSums(t *testing.T) {
	r := New()
	var a, b, c Counter
	a.Add(10)
	b.Add(20)
	c.Add(30)
	r.Attach("pool.reads", &a)
	r.Attach("pool.reads", &b)
	r.Attach("pool.reads", &c)
	r.Attach("pool.reads", &b) // duplicate attach is a no-op
	if got := r.Snapshot().Get("pool.reads"); got != 60 {
		t.Errorf("summed counter = %d, want 60", got)
	}

	var g1, g2 Gauge
	g1.Add(5)
	g2.Add(-2)
	r.AttachGauge("pool.pinned", &g1)
	r.AttachGauge("pool.pinned", &g2)
	if got := r.Snapshot().Get("pool.pinned"); got != 3 {
		t.Errorf("summed gauge = %d, want 3", got)
	}

	r.Func("derived", func() uint64 { return 7 })
	r.Func("derived", func() uint64 { return 8 })
	if got := r.Snapshot().Get("derived"); got != 15 {
		t.Errorf("summed func = %d, want 15", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Attach("x", &Counter{})
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r.AttachGauge("x", &Gauge{})
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	h.Observe(2 * time.Microsecond)   // bucket le=4µs
	h.Observe(2 * time.Microsecond)   // same
	h.Observe(100 * time.Millisecond) // le=262144µs
	h.Observe(time.Hour)              // +Inf overflow
	h.Observe(-time.Second)           // clamped to 0, first bucket

	s := h.snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 2 || s.Buckets[histBuckets-1] != 1 {
		t.Errorf("bucket layout wrong: %v", s.Buckets)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket sum %d != count %d", total, s.Count)
	}

	// Merged multi-attach histograms.
	var h2 Histogram
	h2.Observe(3 * time.Microsecond)
	r.AttachHistogram("lat", &h2)
	snap := r.Snapshot()
	if snap.Get("lat.count") != 6 {
		t.Errorf("merged count = %d, want 6", snap.Get("lat.count"))
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	var c Counter
	r.Attach("n", &c)
	c.Add(10)
	before := r.Snapshot()
	c.Add(7)
	d := r.Snapshot().Delta(before)
	if d.Get("n") != 7 {
		t.Errorf("delta = %d, want 7", d.Get("n"))
	}
	// A shrinking func metric clamps at zero instead of wrapping.
	v := uint64(100)
	r.Func("shrinks", func() uint64 { return v })
	before = r.Snapshot()
	v = 40
	if got := r.Snapshot().Delta(before).Get("shrinks"); got != 0 {
		t.Errorf("shrinking delta = %d, want 0 (clamped)", got)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pages.logical_reads": "sqlarray_pages_logical_reads",
		"wal.sync_latency":    "sqlarray_wal_sync_latency",
		"weird-name/x":        "sqlarray_weird_name_x",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	var c Counter
	var g Gauge
	r.Attach("pages.reads", &c)
	r.AttachGauge("engine.open_snapshots", &g)
	c.Add(42)
	g.Add(3)
	r.Histogram("wal.sync_latency").Observe(2 * time.Microsecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE sqlarray_pages_reads_total counter",
		"sqlarray_pages_reads_total 42",
		"# TYPE sqlarray_engine_open_snapshots gauge",
		"sqlarray_engine_open_snapshots 3",
		"# TYPE sqlarray_wal_sync_latency_seconds histogram",
		`sqlarray_wal_sync_latency_seconds_bucket{le="+Inf"} 1`,
		"sqlarray_wal_sync_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the 4µs bucket already
	// holds the 2µs observation.
	if !strings.Contains(out, `le="4e-06"} 1`) {
		t.Errorf("cumulative bucket missing:\n%s", out)
	}
}

func TestConcurrentHandleUpdates(t *testing.T) {
	r := New()
	var c Counter
	r.Attach("hot", &c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				_ = r.Snapshot() // concurrent reads
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Get("hot"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}
