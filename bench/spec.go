package main

import (
	"encoding/json"
	"io"
)

// This file is the benchmark's single source of truth for names: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json at the repository root is
// generated from it (`bench -manifest`); the smoke test fails when the
// two drift apart.

// runSeconds is the timed window of one run. The driver makes 4 + 22
// runs per workload and caps the total at 3420 s, so window + five
// set-ups + verification has to stay near 30 s on the slowest workload
// (table1_scan: 5 × 2.5 s set-up).
const runSeconds = 15

// metricDef describes one named metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the gated metrics. Every workload reports every one of
// them: the first four mean the same everywhere, and op1..op3 are the
// median latencies of the workload's three headline operations (see
// workloadDef.slots for which operation fills which slot).
//
// Every bound is the widest the driver allows, because this 2-vCPU VM
// is noisy in two ways. Across ten back-to-back runs of one commit the
// inter-quartile spread of the CPU- and memory-bound metrics is 5-7 %
// of the median (10 % for CPU per op on the sleeping turb_stencil and
// for peak RSS), and a bound has to be about three times the spread to
// tell a regression from a draw. And the whole VM changes speed: for
// tens of minutes at a time every CPU-bound number here has read
// 20-30 % worse than an hour before, on the same binary.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"op1_ms_p50", "ms", lower, 0.25},
	{"op2_ms_p50", "ms", lower, 0.25},
	{"op3_ms_p50", "ms", lower, 0.25},
}

// workloadDef names a workload, why it exists, its operation kinds and
// which three of them fill the op1..op3 end-to-end slots.
type workloadDef struct {
	name  string
	why   string
	kinds []string // operation kinds, indexed by the kind step() returns
	slots [3]int   // kind index behind op1_ms_p50, op2_ms_p50, op3_ms_p50
	// replay is how many ops the traced run replays (0: one full cycle,
	// whose length the instance reports).
	replay int
	setup  func(seed int64, sz sizes) (instance, error)
}

var workloads = []*workloadDef{
	{
		name:   "table1_scan",
		why:    "paper Table 1 Q1-Q5 over 400k-row Tscalar/Tvector, pool 16 MB < data 122 MB: per-row scan, decode and UDF cost; op1=Q3 SUM(v1) op2=Q4 Item_1 UDF op3=Q5 empty UDF",
		kinds:  table1Kinds,
		slots:  [3]int{2, 3, 4},
		replay: 10,
		setup:  setupTable1,
	},
	{
		name:   "turb_stencil",
		why:    "64^3 turbulence cubes on a 150 MB/s disk, pool 6 MB < data 28 MB: blob partial reads, miss path; op1=64-pt Lag8 partial-read batch op2=same batch whole-blob op3=Lag4 batch",
		kinds:  turbKinds,
		slots:  [3]int{0, 1, 2},
		replay: 24,
		setup:  setupTurb,
	},
	{
		name:   "spectra_hot",
		why:    "1000 spectra x 2000 bins resident in a 128 MB pool, Zipf ids: fixed per-op cost on the hit path, no device, no WAL; op1=GetSlice op2=SQL point query op3=Get+Resample",
		kinds:  spectraKinds,
		slots:  [3]int{0, 1, 2},
		replay: 2000,
		setup:  setupSpectra,
	},
	{
		name:  "nbody_ingest",
		why:   "per cycle: COPY a 100k-particle snapshot into partitioned+bucket+row stores, SQL DML under a live scanner, box queries, crash+recover; WAL synced per commit; op1=DML commit op2=box query op3=COPY",
		kinds: nbodyKinds,
		slots: [3]int{0, 1, 2},
		setup: setupNbody,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// alias returns the descriptive name of a slot metric on this workload
// (op1_ms_p50 on table1_scan is q3_scan_ms_p50); other names map to
// themselves.
func (w *workloadDef) alias(metric string) string {
	for i, slot := range [3]string{"op1_ms_p50", "op2_ms_p50", "op3_ms_p50"} {
		if metric == slot {
			return w.kinds[w.slots[i]] + "_ms_p50"
		}
	}
	return metric
}

// perLayer lists every per-layer metric, layer = module name. Counts
// come from registry snapshot deltas around a fixed single-client op
// sequence, so they repeat exactly; times come from spans the
// benchmark records around calls into the layer's public functions or
// from differencing the Table 1 queries as §7.1 of the paper does.
// README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// pages
	{Name: "pages.logical_reads_per_op", Unit: "count", Better: lower},
	{Name: "pages.physical_reads_per_op", Unit: "count", Better: lower},
	{Name: "pages.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "pages.evictions_per_op", Unit: "count", Better: lower},
	{Name: "pages.scan_evictions_per_op", Unit: "count", Better: lower},
	{Name: "pages.bytes_written_per_op", Unit: "B", Better: lower},
	{Name: "pages.cow_copies_per_commit", Unit: "count", Better: lower},
	{Name: "pages.versions_retired_per_commit", Unit: "count", Better: lower},
	{Name: "pages.fetch_hit_ns", Unit: "ns", Better: lower},
	{Name: "pages.fetch_miss_us", Unit: "us", Better: lower},
	{Name: "pages.device_wait_share", Unit: "ratio", Better: lower},
	{Name: "pages.stored_bytes_per_user_byte", Unit: "ratio", Better: lower},
	// btree
	{Name: "btree.scan_ns_per_row", Unit: "ns", Better: lower},
	{Name: "btree.leaf_pages_per_krow", Unit: "count", Better: lower},
	{Name: "btree.descent_pages_per_lookup", Unit: "count", Better: lower},
	{Name: "btree.get_us", Unit: "us", Better: lower},
	{Name: "btree.graft_leaf_pages_per_copy", Unit: "count", Better: lower},
	// blob
	{Name: "blob.chunk_reads_per_op", Unit: "count", Better: lower},
	{Name: "blob.directory_reads_per_op", Unit: "count", Better: lower},
	{Name: "blob.stored_bytes_read_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "blob.partial_over_whole_bytes", Unit: "ratio", Better: lower},
	{Name: "blob.compress_ratio", Unit: "ratio", Better: higher},
	{Name: "blob.subarray_hot_us", Unit: "us", Better: lower},
	{Name: "blob.chunks_written_per_commit", Unit: "count", Better: lower},
	{Name: "blob.pages_reused_ratio", Unit: "ratio", Better: higher},
	// engine
	{Name: "engine.udf_call_ns", Unit: "ns", Better: lower},
	{Name: "engine.udf_empty_share", Unit: "ratio", Better: lower},
	{Name: "engine.scan_decode_ns_per_row", Unit: "ns", Better: lower},
	{Name: "engine.vector_row_overhead", Unit: "ratio", Better: lower},
	{Name: "engine.tx_begin_us", Unit: "us", Better: lower},
	{Name: "engine.tx_body_us", Unit: "us", Better: lower},
	{Name: "engine.tx_commit_us", Unit: "us", Better: lower},
	{Name: "engine.copy_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "engine.recover_ms", Unit: "ms", Better: lower},
	{Name: "engine.recover_pages_per_s", Unit: "1/s", Better: higher},
	// tsql / core
	{Name: "tsql.item_extract_ns", Unit: "ns", Better: lower},
	{Name: "core.subarray_plan_ns", Unit: "ns", Better: lower},
	// sqlmini
	{Name: "sqlmini.parse_us", Unit: "us", Better: lower},
	{Name: "sqlmini.plan_us", Unit: "us", Better: lower},
	{Name: "sqlmini.exec_us", Unit: "us", Better: lower},
	{Name: "sqlmini.exec_ns_per_row", Unit: "ns", Better: lower},
	{Name: "sqlmini.parallel_speedup", Unit: "ratio", Better: higher},
	// wal
	{Name: "wal.records_per_op", Unit: "count", Better: lower},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "wal.records_per_commit", Unit: "count", Better: lower},
	{Name: "wal.syncs_per_commit", Unit: "count", Better: lower},
	{Name: "wal.piggyback_ratio", Unit: "ratio", Better: higher},
	{Name: "wal.sync_us_mean", Unit: "us", Better: lower},
	{Name: "wal.append_us_per_page", Unit: "us", Better: lower},
	// partition
	{Name: "partition.pruned_ratio", Unit: "ratio", Better: higher},
	{Name: "partition.ranges_per_box", Unit: "count", Better: lower},
	{Name: "partition.keys_examined_per_hit", Unit: "ratio", Better: lower},
	{Name: "partition.scatter_ms", Unit: "ms", Better: lower},
	{Name: "partition.copy_route_share", Unit: "ratio", Better: lower},
	// application stores
	{Name: "turbulence.disk_bytes_per_point", Unit: "B", Better: lower},
	{Name: "turbulence.blobs_per_batch", Unit: "count", Better: lower},
	{Name: "turbulence.compute_share", Unit: "ratio", Better: higher},
	{Name: "spectra.resample_us", Unit: "us", Better: lower},
	{Name: "spectra.get_us", Unit: "us", Better: lower},
	{Name: "nbody.stored_bytes_per_user_byte", Unit: "ratio", Better: lower},
	// the benchmark itself
	{Name: "bench.self_share", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: higher},
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // no bounds: the field is omitted
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
