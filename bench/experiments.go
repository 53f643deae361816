package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sqlarray"
)

// writeExperiments regenerates EXPERIMENTS.md: the paper's evaluation
// (§6.2, §6.3 Table 1, §7.1) next to what this machine measures on the
// table1_scan workload's own database. The paper-side numbers are the
// ones this repository's sources quote (table1.go, pages/model.go,
// sqlarray_test.go); Table 1's absolute seconds for 357 M rows on the
// authors' server are quoted nowhere in the repository, so the time
// column is compared through the ratios the paper's text draws from it.
func writeExperiments(path string, seed int64) error {
	sz := fullSizes
	inst, err := setupTable1(seed, sz)
	if err != nil {
		return err
	}
	t := inst.(*table1)
	tm, err := measureTable1(t, 7)
	if err != nil {
		return err
	}
	model := sqlarray.DefaultIOModel
	ms := make([]sqlarray.QueryMeasurement, 5)
	for q := range ms {
		io := model.SeqReadTime(tm.bytes[q])
		total := tm.cpu[q]
		if io > total {
			total = io
		}
		ms[q] = sqlarray.QueryMeasurement{
			Index: q + 1, Query: sqlarray.Table1Queries[q], Wall: tm.wall[q], CPU: tm.cpu[q], Bytes: tm.bytes[q],
			Time: total, CPULoad: 100 * float64(tm.cpu[q]) / float64(total), IOMBps: float64(tm.bytes[q]) / 1e6 / total.Seconds(),
		}
	}
	udf, err := sqlarray.DeriveUDFCost(ms, sz.t1Rows)
	if err != nil {
		return err
	}
	cmp, err := sqlarray.CompareTable1Storage(t.d)
	if err != nil {
		return err
	}

	var b strings.Builder
	w := func(format string, a ...any) { fmt.Fprintf(&b, format, a...) }
	msf := func(d time.Duration) float64 { return float64(d) / 1e6 }
	w("# EXPERIMENTS — paper vs measured\n\n")
	w("Generated by `bash bench/run.sh -experiments bench/EXPERIMENTS.md`; do not edit by hand.\n\n")
	w("Setting: %d rows per table (paper: 357 M), pool %d pages (%d MB) under %d MB of data, in-memory disk,\n",
		sz.t1Rows, sz.t1Pool, sz.t1Pool*8/1024, t.d.Pool().Disk().NumPages()*8/1024)
	w("%s, %d CPUs, GOMAXPROCS %d, seed %d. Each query ran 7 times; the table shows medians.\n\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed)
	w("Paper-side numbers are those this repository's sources quote. Table 1's absolute seconds (357 M rows,\n")
	w("8-core server) are quoted nowhere in the repository, so execution time is compared through the ratios the\n")
	w("paper's text draws from it. The time, CPU %% and MB/s columns are reconstructed the way `table1.go` does:\n")
	w("time = max(CPU, bytes ÷ %.0f MB/s), the I/O rate of the paper's testbed.\n\n", model.SeqReadBytesPerSec/1e6)

	w("## Table 1 (§6.3): the five queries\n\n")
	w("| query | wall ms | CPU ms | MB read | modeled time ms | CPU %% | I/O MB/s | paper I/O MB/s | measured ÷ paper |\n")
	w("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for q, m := range ms {
		paper, rel := "—", "—"
		if q < 3 { // the paper reports the scan queries at the array's sequential rate
			paper = "1150"
			rel = fmt.Sprintf("%.2f", m.IOMBps/1150)
		}
		w("| Q%d `%s` | %.2f | %.2f | %.1f | %.2f | %.0f | %.0f | %s | %s |\n",
			q+1, m.Query, msf(m.Wall), msf(m.CPU), float64(m.Bytes)/1e6, msf(m.Time), m.CPULoad, m.IOMBps, paper, rel)
	}
	w("\nA ratio of 1.00 on Q1–Q3 says the query needs less CPU time than the paper's device needs to deliver its\n")
	w("bytes: it is I/O-bound under that device model, as it is in the paper. Q4 and Q5 are CPU-bound in the paper\n")
	w("(the UDF boundary), so it gives no device rate to compare.\n\n")

	w("## Execution-time ratios the paper draws from Table 1\n\n")
	w("| quantity | paper | measured (CPU) | measured ÷ paper |\n|---|---:|---:|---:|\n")
	row := func(name string, paper, measured float64) {
		w("| %s | %.2f | %.2f | %.2f |\n", name, paper, measured, measured/paper)
	}
	cpu := func(q int) float64 { return float64(tm.cpu[q-1]) }
	row("Q2 ÷ Q1 (same scan, 43 % bigger table)", 1.43, cpu(2)/cpu(1))
	row("Q4 ÷ Q5 (item extraction on top of the call, +22 %)", 1.22, cpu(4)/cpu(5))
	row("Q5 ÷ Q3 (empty call ≥ 38 % of Q5 ⇒ ≥ 1.61)", 1.61, cpu(5)/cpu(3))

	w("\n## Table size (§6.2)\n\n")
	w("| quantity | paper | measured | measured ÷ paper |\n|---|---:|---:|---:|\n")
	row("Tvector ÷ Tscalar row bytes", 1.43, cmp.ByteRatio)
	row("Tvector ÷ Tscalar leaf pages", 1.43, cmp.PageRatio)

	w("\n## Derived UDF costs (§7.1)\n\n")
	w("| quantity | paper | measured | measured ÷ paper |\n|---|---:|---:|---:|\n")
	row("CPU per UDF call incl. extraction, (Q4−Q3) ÷ rows, µs", 2, float64(udf.PerCallCost)/1e3)
	row("empty-call share of Q5, (Q5−Q3) ÷ Q5", 0.38, udf.EmptyCallShare)
	row("item-extraction increment, (Q4−Q5) ÷ Q5", 0.22, udf.ExtractionIncrement)
	w("\nCPU per empty call, (Q5−Q3) ÷ rows: %.3f µs (the paper gives no separate figure).\n",
		float64(udf.PerEmptyCallCost)/1e3)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
