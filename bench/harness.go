package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// sizes fixes every input dimension of the four workloads. fullSizes is
// what the benchmark measures; toySizes lets the smoke test and the
// per-layer probes build the same stores in milliseconds.
type sizes struct {
	// setupReps is how many instances a run sets up and measures;
	// opStream is which of the seed's independent op sequences this
	// instance runs.
	setupReps int
	opStream  uint64

	// Warm-up ops after load; part of set-up. nbody warms up with one
	// full cycle.
	t1Warm, turbWarm, specWarm int

	t1Rows, t1Pool int

	turbN, turbModes, turbCube, turbGhost, turbPool int
	turbDiskBps                                     int64
	turbBatch                                       int

	specN, specBins, specPool, specGrid int

	nbParticles, nbBucket, nbDML, nbBoxes int
	nbSide                                uint32 // Morton grid side of the partitioned store

	// singleClient leaves out nbody's concurrent scanner, so that a
	// traced replay's counts repeat exactly.
	singleClient bool
}

var fullSizes = sizes{
	setupReps: 5, t1Warm: 5, turbWarm: 18, specWarm: 3000,
	t1Rows: 400_000, t1Pool: 2048,
	turbN: 64, turbModes: 32, turbCube: 16, turbGhost: 4, turbPool: 768, turbDiskBps: 150 << 20, turbBatch: 64,
	specN: 1000, specBins: 2000, specPool: 16384, specGrid: 500,
	nbParticles: 100_000, nbBucket: 2000, nbDML: 300, nbBoxes: 50, nbSide: 1 << 14,
}

var toySizes = sizes{
	setupReps: 1, t1Warm: 5, turbWarm: 6, specWarm: 50,
	t1Rows: 20_000, t1Pool: 256,
	turbN: 16, turbModes: 8, turbCube: 8, turbGhost: 4, turbPool: 64, turbDiskBps: 0, turbBatch: 8,
	specN: 40, specBins: 256, specPool: 4096, specGrid: 64,
	nbParticles: 1500, nbBucket: 200, nbDML: 24, nbBoxes: 6, nbSide: 1 << 14,
}

// instance is one loaded workload: stores built from the seed, a seeded
// op sequence, and the model the results are verified against.
type instance interface {
	// step runs the next op of the seeded sequence and verifies its
	// result. lat covers the calls into the system only, not the
	// verification. A non-nil err means the op failed or returned a
	// wrong result.
	step(tr *tracer) (kind int, lat time.Duration, err error)
	// pos and seek save and restore the position in the op sequence, so
	// the traced run can replay the same ops twice.
	pos() cursor
	seek(cursor)
	// cycle is the number of ops in one full cycle of the sequence.
	cycle() int
	// counters returns the registry counters summed over every store
	// the instance has opened so far.
	counters() obs.Snapshot
	// db is the database the generic pool probes run against.
	db() *engine.DB
	// footprint returns bytes on disk and the generated payload bytes.
	footprint() (stored, user int64)
	// close stops background clients and returns the ops they
	// attempted and failed.
	close() (attempted, failed int)
}

// cursor is a position in a seeded op sequence.
type cursor struct {
	r rng
	i int
}

// rng is splitmix64: small enough to copy into a cursor, cheap enough
// not to show in a 15 µs op.
type rng struct{ s uint64 }

// newRng derives an independent stream from (seed, stream). The start
// state is itself a mixed output: consecutive seeds must not produce
// one sequence shifted by a draw, which ops that consume different
// numbers of draws would soon re-align.
func newRng(seed int64, stream uint64) rng {
	r := rng{s: uint64(seed)*0xd1342543de82ef95 + stream}
	return rng{s: r.next()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// samples collects one op kind's latencies in milliseconds.
type samples []float64

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail returns the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, with its label; ok is false below 100 samples.
func tail(sorted []float64) (label string, v float64, ok bool) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			return c.label, quantile(sorted, c.q), true
		}
	}
	return "", 0, false
}

// cpuTime is the process's user+system CPU time and peak RSS so far.
func cpuTime() (cpu time.Duration, maxRSSkB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, int64(ru.Maxrss)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed ops and keeps the first few
// failures for the report.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 && t.log != nil {
		fmt.Fprintf(t.log, "FAIL op %d: %v\n", t.attempted, err)
	}
}

// warmUp runs n ops (or one full cycle when the workload has long
// cycles) so caches fill and lazy set-up finishes before timing. It is
// called from each workload's setup, so its cost is part of setup_s.
func warmUp(inst instance, n int) error {
	if c := inst.cycle(); c > n {
		n = c
	}
	for i := 0; i < n; i++ {
		if _, _, err := inst.step(nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// endToEndRun is one untraced run. The workload is set up
// sz.setupReps times from the same seed, each instance running its own
// stream of the seeded op sequence for an equal share of the window in
// a closed loop of verified ops; every metric is the median over the
// instances. Splitting the window this way is what makes a run
// repeatable: the same instance measures within 2 % from one window to
// the next, but two instances of the same data differ by up to 10 % on
// CPU-bound ops (where the allocator happened to put the pages), so
// one long window on one instance is a draw from that lottery.
type endToEndRun struct {
	res     result
	byKind  []samples // latencies per op kind over all instances, ms
	ops     int
	window  time.Duration
	stored  int64
	userLen int64
}

func runEndToEnd(w *workloadDef, seed int64, window time.Duration, sz sizes, log io.Writer) (*endToEndRun, error) {
	run := &endToEndRun{byKind: make([]samples, len(w.kinds))}
	tl := tally{log: log}
	per := map[string][]float64{} // metric → one value per instance
	share := window / time.Duration(sz.setupReps)
	for rep := 0; rep < sz.setupReps; rep++ {
		sz.opStream = uint64(rep)
		t0 := time.Now()
		inst, err := w.setup(seed, sz)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t0).Seconds())

		byKind := make([]samples, len(w.kinds))
		ops := 0
		cpu0, _ := cpuTime()
		t0 = time.Now()
		// At least one full cycle, however short the share, so every op
		// kind has a sample.
		for n := 0; time.Since(t0) < share || n < inst.cycle(); n++ {
			kind, lat, err := inst.step(nil)
			tl.add(err)
			if err == nil {
				byKind[kind] = append(byKind[kind], float64(lat)/1e6)
				ops++
			}
		}
		elapsed := time.Since(t0)
		cpu1, _ := cpuTime()
		bgAttempted, bgFailed := inst.close()
		tl.attempted += bgAttempted
		tl.failed += bgFailed
		run.stored, run.userLen = inst.footprint()
		run.ops += ops
		run.window += elapsed
		if ops > 0 {
			per["ops_per_s"] = append(per["ops_per_s"], float64(ops)/elapsed.Seconds())
			per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], float64(cpu1-cpu0)/1e6/float64(ops))
		}
		for i, slot := range [3]string{"op1_ms_p50", "op2_ms_p50", "op3_ms_p50"} {
			if s := byKind[w.slots[i]]; len(s) > 0 {
				per[slot] = append(per[slot], median(s))
			}
		}
		for k, s := range byKind {
			run.byKind[k] = append(run.byKind[k], s...)
		}
		// Collect the instance before the next is built, so peak RSS is
		// one instance's, not the sum.
		inst = nil
		runtime.GC()
		debug.FreeOSMemory()
	}
	_, rss := cpuTime()
	m := map[string]metric{"peak_rss_mb": {float64(rss) / 1024, "MB"}}
	for _, d := range endToEnd {
		// A metric with no value on some instance (every op of that kind
		// failed, or the share was shorter than one cycle) is left out,
		// which the driver treats as a broken run — as it should.
		if v := per[d.Name]; len(v) == sz.setupReps {
			m[d.Name] = metric{median(v), d.Unit}
		}
	}
	run.res = result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
	return run, nil
}

// report prints the run for a reader: every end-to-end metric under
// both its slot name and its descriptive alias, then every op kind's
// median, tail percentile and sample count over all instances.
func (run *endToEndRun) report(out io.Writer, w *workloadDef) {
	fmt.Fprintf(out, "workload %s: %d ops in %.2fs, %d attempted, %d failed\n",
		w.name, run.ops, run.window.Seconds(), run.res.Attempted, run.res.Failed)
	for _, d := range endToEnd {
		if m, ok := run.res.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "  %-16s %-22s %14.6g %s\n", d.Name, w.alias(d.Name), m.Value, m.Unit)
		}
	}
	for k, s := range run.byKind {
		if len(s) == 0 {
			continue
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		line := fmt.Sprintf("  op %-14s p50 %10.4f ms", w.kinds[k], quantile(sorted, 0.5))
		if label, v, ok := tail(sorted); ok {
			line += fmt.Sprintf("  %s %10.4f ms", label, v)
		}
		fmt.Fprintf(out, "%s  n=%d\n", line, len(s))
	}
	if run.userLen > 0 {
		fmt.Fprintf(out, "  stored/user bytes %.3f (%d / %d)\n",
			float64(run.stored)/float64(run.userLen), run.stored, run.userLen)
	}
}
