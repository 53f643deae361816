// Package obs is the engine-wide observability plane: a stdlib-only
// metrics registry plus the per-query trace machinery behind EXPLAIN
// ANALYZE and the slow-query log.
//
// Every subsystem counter — buffer-pool I/O, blob chunk reads, WAL
// appends, DML row counts — is an obs handle (Counter, Gauge,
// Histogram) registered by name in a Registry. Handles are plain
// atomics: updating one on a hot path is a single atomic add with no
// map lookup, no lock and no allocation, so instrumentation stays on
// unconditionally. The registry is only consulted when someone *reads*
// the metrics: Snapshot for per-query deltas, Handler (http.go) for
// the Prometheus/expvar export, sqlsh `.stats` for the shell report.
//
// Several handles may be attached under one name; the registry sums
// them on read. A partitioned store opens every member engine.DB
// against the same registry, so the member pools' logical reads all
// fold into a single "pages.logical_reads" series — this is what makes
// scatter-gather queries visible to `.stats` and the HTTP endpoint
// instead of only the primary DB (see partition and cmd/sqlsh).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; embed it by value in a subsystem's counter block and
// attach it to a Registry with Attach. Must not be copied after first
// use (it embeds an atomic).
type Counter struct {
	atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a metric that can go up and down (pinned frames, open
// snapshots). The zero value is ready to use. Must not be copied after
// first use.
type Gauge struct {
	atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Histogram bucket upper bounds: powers of four from 1µs to ~17s, plus
// a +Inf overflow bucket. Fixed at compile time so Observe is a shift
// loop over a constant table — no per-histogram configuration, no
// allocation.
var histBounds = [...]time.Duration{
	1 * time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1024 * time.Microsecond,
	4096 * time.Microsecond,
	16384 * time.Microsecond,
	65536 * time.Microsecond,
	262144 * time.Microsecond,
	1048576 * time.Microsecond,
	4194304 * time.Microsecond,
	16777216 * time.Microsecond,
}

// histBuckets is the number of histogram buckets including the +Inf
// overflow bucket.
const histBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use. Must not be copied after first use.
type Histogram struct {
	buckets [histBuckets]Counter
	count   Counter
	sumNS   Counter
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.buckets[i].Inc()
	h.count.Inc()
	h.sumNS.Add(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNS returns the total of all observed durations in nanoseconds.
func (h *Histogram) SumNS() uint64 { return h.sumNS.Load() }

// histCounts is a point-in-time copy of one histogram.
type histCounts struct {
	Buckets [histBuckets]uint64 // per-bucket (non-cumulative) counts
	Count   uint64
	SumNS   uint64
}

func (h *Histogram) snapshot() histCounts {
	var s histCounts
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	return s
}

// bucketBound returns the upper bound of bucket i, or -1 for the +Inf
// overflow bucket.
func bucketBound(i int) time.Duration {
	if i < len(histBounds) {
		return histBounds[i]
	}
	return -1
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFunc
	kindHistogram
)

// entry is one named metric. Counters, gauges and funcs may have
// several sources attached under the same name (partition members
// sharing a registry); reads sum them.
type entry struct {
	kind     metricKind
	counters []*Counter
	gauges   []*Gauge
	funcs    []func() uint64
	hists    []*Histogram
}

// histSnapshot merges every attached histogram into one snapshot.
func (e *entry) histSnapshot() histCounts {
	var m histCounts
	for _, h := range e.hists {
		s := h.snapshot()
		for i := range s.Buckets {
			m.Buckets[i] += s.Buckets[i]
		}
		m.Count += s.Count
		m.SumNS += s.SumNS
	}
	return m
}

func (e *entry) value() uint64 {
	var v uint64
	switch e.kind {
	case kindCounter:
		for _, c := range e.counters {
			v += c.Load()
		}
	case kindGauge:
		var g int64
		for _, gg := range e.gauges {
			g += gg.Load()
		}
		if g > 0 {
			v = uint64(g)
		}
	case kindFunc:
		for _, f := range e.funcs {
			v += f()
		}
	}
	return v
}

// Registry maps metric names to handles. Registration takes a write
// lock; reads (Snapshot, export) take a read lock; handle updates take
// no lock at all. Names are conventionally "subsystem.metric_name"
// (pages.logical_reads, wal.syncs); the HTTP exporter maps them to
// Prometheus form (http.go).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) get(name string, kind metricKind) *entry {
	e, ok := r.entries[name]
	if !ok {
		e = &entry{kind: kind}
		r.entries[name] = e
	}
	if e.kind != kind {
		panic("obs: metric " + name + " registered with conflicting kinds")
	}
	return e
}

// Counter returns the counter registered under name, creating it on
// first use. Callers cache the handle; updates through it never touch
// the registry again.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindCounter)
	if len(e.counters) == 0 {
		e.counters = append(e.counters, &Counter{})
	}
	return e.counters[0]
}

// Attach registers an externally owned counter under name. Several
// counters may share a name — reads sum them — which is how partition
// member databases fold their per-pool counters into one series.
func (r *Registry) Attach(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindCounter)
	for _, have := range e.counters {
		if have == c {
			return
		}
	}
	e.counters = append(e.counters, c)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindGauge)
	if len(e.gauges) == 0 {
		e.gauges = append(e.gauges, &Gauge{})
	}
	return e.gauges[0]
}

// AttachGauge registers an externally owned gauge under name; reads
// sum all attached gauges.
func (r *Registry) AttachGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindGauge)
	for _, have := range e.gauges {
		if have == g {
			return
		}
	}
	e.gauges = append(e.gauges, g)
}

// Func registers a computed metric: fn is called on every read. Use it
// for values derived from live state (pinned frames, catalog row
// counts) rather than maintained counters. Several funcs may share a
// name; reads sum them.
func (r *Registry) Func(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindFunc)
	e.funcs = append(e.funcs, fn)
}

// Histogram returns the first histogram registered under name,
// creating one on first use. Databases sharing a registry share the
// series.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindHistogram)
	if len(e.hists) == 0 {
		e.hists = append(e.hists, &Histogram{})
	}
	return e.hists[0]
}

// AttachHistogram registers an externally owned histogram under name.
// Several histograms may share a name; reads merge their buckets.
func (r *Registry) AttachHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, kindHistogram)
	for _, have := range e.hists {
		if have == h {
			return
		}
	}
	e.hists = append(e.hists, h)
}

// Snapshot is a point-in-time capture of every scalar metric in a
// registry, keyed by registered name. Histograms contribute
// "<name>.count" and "<name>.sum_ns" entries so deltas over them work
// like any counter.
type Snapshot map[string]uint64

// Snapshot captures every metric. Funcs are invoked; counters and
// gauges are atomically loaded. The capture is not a consistent cut
// across metrics — concurrent writers may land between loads — which
// is fine for deltas and export.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.entries)+8)
	for name, e := range r.entries {
		if e.kind == kindHistogram {
			h := e.histSnapshot()
			s[name+".count"] = h.Count
			s[name+".sum_ns"] = h.SumNS
			continue
		}
		s[name] = e.value()
	}
	return s
}

// Delta returns s minus before, clamping each metric at zero (funcs
// and gauges may legitimately decrease). Metrics absent from before
// are reported at their full value.
func (s Snapshot) Delta(before Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for name, v := range s {
		b := before[name]
		if v >= b {
			d[name] = v - b
		} else {
			d[name] = 0
		}
	}
	return d
}

// Get returns the metric's value, or zero when absent.
func (s Snapshot) Get(name string) uint64 { return s[name] }

// Names returns the snapshot's metric names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// names returns all registered names sorted; callers hold at least the
// read lock.
func (r *Registry) names() []string {
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
