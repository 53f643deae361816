package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

// tracedRun is the per-layer half of the benchmark. After the same
// set-up as an end-to-end run it replays a fixed number of ops twice
// with one client — untraced, then with spans and a registry delta
// around them — and then probes each layer's public entry points
// directly. Every workload reports every per-layer metric: the replay
// counts are the workload's own, and each probe runs against the
// workload's own store where it has one of that kind and against a toy
// store built for the purpose where it does not (a turbulence run
// still reports the Table 1 differences, from a 4000-row Table 1).
type tracedRun struct {
	res    result
	values map[string]float64
	tr     *tracer
	self   map[string]time.Duration
	path   string
}

func runTraced(w *workloadDef, seed int64, sz sizes, outDir string, log io.Writer) (*tracedRun, error) {
	sz.singleClient = true
	// One OS thread from set-up to the end of the replays: with two, a
	// parallel scan's workers interleave differently from run to run,
	// and on a pool smaller than the data that changes which pages are
	// resident, evicted and read again. The counts are then those of
	// the op sequence, not of the scheduler.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	inst, err := w.setup(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	k := w.replay
	if k == 0 {
		k = inst.cycle()
	}
	tl := tally{log: log}
	replay := func(tr *tracer) time.Duration {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			_, _, err := inst.step(tr)
			tl.add(err)
		}
		return time.Since(t0)
	}

	start := inst.pos()
	untraced := replay(nil)
	inst.seek(start)
	tr := newTracer()
	before := inst.counters()
	traced := replay(tr)
	total := inst.counters()
	delta := total.Delta(before)
	runtime.GOMAXPROCS(procs) // the probes below time the default execution

	m := map[string]float64{}
	replayCounts(m, delta, k, traced)
	m["bench.trace_overhead_ratio"] = float64(untraced) / float64(traced)
	self := tr.selfTimes()
	var spanned time.Duration
	for _, d := range self {
		spanned += d
	}
	m["bench.self_share"] = float64(self["bench"]) / float64(spanned)
	// Blob payload bytes per byte of chunk page they occupy, page slack
	// included; blobs the codec cannot shrink are stored raw (≈ 0.99).
	m["blob.compress_ratio"] = ratio(total.Get("blob.bytes_written"), total.Get("blob.chunks_written")*pages.PageSize)
	stored, user := inst.footprint()
	m["pages.stored_bytes_per_user_byte"] = float64(stored) / float64(user)

	if err := probePool(inst.db(), m); err != nil {
		return nil, fmt.Errorf("pool probe: %w", err)
	}
	if err := probeWAL(m); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := probeStores(inst, seed, m); err != nil {
		return nil, err
	}

	run := &tracedRun{values: m, tr: tr, self: self}
	if run.path, err = tr.write(outDir, w.name); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	for _, d := range perLayer {
		metrics[d.Name] = metric{m[d.Name], d.Unit}
	}
	run.res = result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}
	return run, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayCounts turns the registry delta of a k-op replay into the
// per-op counts every workload reports. A counter the registry no
// longer has reads as zero.
func replayCounts(m map[string]float64, d obs.Snapshot, k int, elapsed time.Duration) {
	per := func(name string) float64 { return float64(d.Get(name)) / float64(k) }
	m["pages.logical_reads_per_op"] = per("pages.logical_reads")
	m["pages.physical_reads_per_op"] = per("pages.physical_reads")
	m["pages.hit_ratio"] = 1 - ratio(d.Get("pages.physical_reads"), d.Get("pages.logical_reads"))
	m["pages.evictions_per_op"] = per("pages.evictions")
	m["pages.scan_evictions_per_op"] = per("pages.scan_evictions")
	m["pages.bytes_written_per_op"] = per("pages.bytes_written")
	// The share of the replay a 150 MB/s device would have spent moving
	// the bytes the pool read; on turb_stencil the device is real.
	m["pages.device_wait_share"] = float64(d.Get("pages.bytes_read")) / float64(150<<20) / elapsed.Seconds()
	m["blob.chunk_reads_per_op"] = per("blob.chunk_reads")
	m["blob.directory_reads_per_op"] = per("blob.directory_reads")
	// Read amplification: bytes of chunk pages fetched per payload byte
	// handed to the caller.
	m["blob.stored_bytes_read_per_user_byte"] = ratio(d.Get("blob.chunk_reads")*pages.PageSize, d.Get("blob.bytes_read"))
	m["wal.records_per_op"] = per("wal.records")
}

// probePool times the buffer pool's two paths on the workload's own
// pool and disk: Fetch+Unpin of a resident page, and the same after
// DropCleanBuffers.
func probePool(db *engine.DB, m map[string]float64) error {
	bp := db.Pool()
	n := bp.Disk().NumPages()
	if n > 256 {
		n = 256
	}
	ids := make([]pages.PageID, 0, n)
	for i := 1; i < n; i++ {
		ids = append(ids, pages.PageID(i))
	}
	if len(ids) == 0 {
		return nil
	}
	pass := func() (time.Duration, error) {
		t0 := time.Now()
		for _, id := range ids {
			f, err := bp.Fetch(id)
			if err != nil {
				return 0, err
			}
			bp.Unpin(f, false)
		}
		return time.Since(t0) / time.Duration(len(ids)), nil
	}
	if err := bp.FlushAll(); err != nil {
		return err
	}
	if err := bp.DropCleanBuffers(); err != nil {
		return err
	}
	miss, err := pass()
	if err != nil {
		return err
	}
	var hits []float64
	for r := 0; r < 20; r++ {
		hit, err := pass()
		if err != nil {
			return err
		}
		hits = append(hits, float64(hit))
	}
	m["pages.fetch_miss_us"] = float64(miss) / 1e3
	m["pages.fetch_hit_ns"] = median(hits)
	return nil
}

// probeWAL times Log.Append of one page image on a scratch log.
func probeWAL(m map[string]float64) error {
	log, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, 4+pages.PageSize)
	const n = 512
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := log.Append(wal.RecPageImage, payload); err != nil {
			return err
		}
	}
	m["wal.append_us_per_page"] = float64(time.Since(t0)) / n / 1e3
	if err := log.Sync(); err != nil {
		return err
	}
	return log.Close()
}

// probeStore runs one store probe against the instance when it is that
// kind of store, and against a toy one built from the same seed when
// it is not.
func probeStore[T instance](inst instance, seed int64, setup func(int64, sizes) (instance, error), probe func(T, map[string]float64) error, m map[string]float64) error {
	target, ok := inst.(T)
	if !ok {
		toy := toySizes
		toy.singleClient = true
		built, err := setup(seed, toy)
		if err != nil {
			return err
		}
		defer built.close()
		target = built.(T)
	}
	return probe(target, m)
}

func probeStores(inst instance, seed int64, m map[string]float64) error {
	if err := probeStore(inst, seed, setupTable1, probeTable1, m); err != nil {
		return fmt.Errorf("table1 probe: %w", err)
	}
	if err := probeStore(inst, seed, setupTurb, probeTurb, m); err != nil {
		return fmt.Errorf("turbulence probe: %w", err)
	}
	if err := probeStore(inst, seed, setupSpectra, probeSpectra, m); err != nil {
		return fmt.Errorf("spectra probe: %w", err)
	}
	if err := probeStore(inst, seed, setupNbody, probeNbody, m); err != nil {
		return fmt.Errorf("nbody probe: %w", err)
	}
	return nil
}

// report prints the per-layer metrics and the layers' self times for a
// reader.
func (run *tracedRun) report(out io.Writer, w *workloadDef) {
	fmt.Fprintf(out, "workload %s traced: %d spans -> %s\n", w.name, len(run.tr.spans), run.path)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", d.Name, run.values[d.Name], d.Unit)
	}
	layers := make([]string, 0, len(run.self))
	for l := range run.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(out, "  self time %-12s %12.3f ms\n", l, float64(run.self[l])/1e6)
	}
}
