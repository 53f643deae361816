package main

import (
	"fmt"
	"math"
	"time"

	"sqlarray"
	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
)

// table1 is the paper's own experiment (§6, Table 1): Tscalar and
// Tvector loaded by sqlarray.SetupTable1, one client cycling the five
// verbatim queries. The pool is a seventh of the data, so every scan is
// a sequential flood through the miss path; the device is memory, so
// what the wall clock shows is per-row CPU.
type table1 struct {
	d    *sqlarray.Database
	rows int
	want [5]float64 // closed form of SetupTable1's generator, per query
	cur  cursor
}

var table1Kinds = []string{"q1_count", "q2_count_vec", "q3_scan", "q4_udf", "q5_empty_udf"}

func setupTable1(_ int64, sz sizes) (instance, error) {
	d, err := sqlarray.OpenDatabase(sqlarray.Options{Disk: pages.NewMemDisk(), PoolPages: sz.t1Pool})
	if err != nil {
		return nil, err
	}
	if err := sqlarray.SetupTable1(d, sz.t1Rows); err != nil {
		return nil, err
	}
	t := &table1{d: d, rows: sz.t1Rows}
	// SetupTable1 stores v1 = (i mod 1000)/1000 in both tables; Q5's
	// empty function returns 0.
	sum := 0.0
	for i := 0; i < sz.t1Rows; i++ {
		sum += float64(i%1000) / 1000
	}
	t.want = [5]float64{float64(sz.t1Rows), float64(sz.t1Rows), sum, sum, 0}
	// Neither the generator nor the op sequence takes the seed: every
	// run loads the same rows and cycles Q1→Q5 from Q1. Starting the
	// cycle elsewhere is not neutral — which scan touches the pool first
	// decides what the SLRU's protected segment holds from then on, and
	// Q3 ran 15 % slower from some starting points than from others.
	if err := warmUp(t, sz.t1Warm); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *table1) step(tr *tracer) (int, time.Duration, error) {
	q := t.cur.i % 5
	t.cur.i++
	defer tr.span("bench", "table1_scan/"+table1Kinds[q])()
	t0 := time.Now()
	done := tr.span("sqlmini", "Query")
	res, err := t.d.Query(sqlarray.Table1Queries[q])
	done()
	lat := time.Since(t0)
	if err != nil {
		return q, lat, err
	}
	return q, lat, checkScalar(res, t.want[q])
}

// checkScalar verifies a one-value result within a relative 1e-9, the
// slack a parallel scan's summation order needs.
func checkScalar(res *sqlarray.Result, want float64) error {
	v, err := res.Scalar()
	if err != nil {
		return err
	}
	got, err := v.AsFloat()
	if err != nil {
		return err
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("result %v, want %v", got, want)
	}
	return nil
}

func (t *table1) pos() cursor            { return t.cur }
func (t *table1) seek(c cursor)          { t.cur = c }
func (t *table1) cycle() int             { return 5 }
func (t *table1) counters() obs.Snapshot { return t.d.Metrics().Snapshot() }
func (t *table1) db() *engine.DB         { return t.d.DB }
func (t *table1) close() (int, int)      { return 0, 0 }

func (t *table1) footprint() (int64, int64) {
	// Payload: an 8-byte key plus five float64 per row, in each table.
	return int64(t.d.Pool().Disk().NumPages()) * pages.PageSize, int64(t.rows) * 2 * 48
}

// table1Times is what measureTable1 records per query: median wall and
// process-CPU time over the repetitions, and the pool bytes one
// execution read.
type table1Times struct {
	wall  [5]time.Duration
	cpu   [5]time.Duration
	bytes [5]uint64
	q3Seq time.Duration // Q3 with Parallelism: 1
}

func measureTable1(t *table1, reps int) (table1Times, error) {
	var out table1Times
	for q := 0; q < 5; q++ {
		var wall, cpu []float64
		for r := 0; r < reps; r++ {
			before := t.d.Metrics().Snapshot()
			c0, _ := cpuTime()
			t0 := time.Now()
			res, err := t.d.Query(sqlarray.Table1Queries[q])
			d := time.Since(t0)
			c1, _ := cpuTime()
			if err != nil {
				return out, err
			}
			if err := checkScalar(res, t.want[q]); err != nil {
				return out, fmt.Errorf("Q%d: %w", q+1, err)
			}
			wall = append(wall, float64(d))
			cpu = append(cpu, float64(c1-c0))
			delta := t.d.Metrics().Snapshot().Delta(before)
			out.bytes[q] = delta.Get("pages.bytes_read")
		}
		out.wall[q] = time.Duration(median(wall))
		out.cpu[q] = time.Duration(median(cpu))
	}
	var seq []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		res, err := t.d.QueryWith(sqlarray.Table1Queries[2], sqlarray.ExecOptions{Parallelism: 1})
		d := time.Since(t0)
		if err != nil {
			return out, err
		}
		if err := checkScalar(res, t.want[2]); err != nil {
			return out, fmt.Errorf("Q3 sequential: %w", err)
		}
		seq = append(seq, float64(d))
	}
	out.q3Seq = time.Duration(median(seq))
	return out, nil
}

// probeTable1 derives the engine/tsql/sqlmini/btree layer costs by
// differencing the five queries, as §7.1 of the paper does: Q1 is the
// bare leaf-chain walk, Q3−Q1 the row decode and aggregate, Q5−Q3 the
// UDF boundary, Q4−Q5 the item extraction behind it.
func probeTable1(t *table1, m map[string]float64) error {
	tm, err := measureTable1(t, 9)
	if err != nil {
		return err
	}
	rows := float64(t.rows)
	ns := func(d time.Duration) float64 { return float64(d) }
	m["btree.scan_ns_per_row"] = ns(tm.wall[0]) / rows
	m["engine.scan_decode_ns_per_row"] = ns(tm.wall[2]-tm.wall[0]) / rows
	m["engine.udf_call_ns"] = ns(tm.wall[4]-tm.wall[2]) / rows
	m["engine.udf_empty_share"] = ns(tm.wall[4]-tm.wall[2]) / ns(tm.wall[4])
	m["engine.vector_row_overhead"] = ns(tm.wall[1]) / ns(tm.wall[0])
	m["tsql.item_extract_ns"] = ns(tm.wall[3]-tm.wall[4]) / rows
	m["sqlmini.exec_ns_per_row"] = ns(tm.wall[2]) / rows
	m["sqlmini.parallel_speedup"] = ns(tm.q3Seq) / ns(tm.wall[2])
	cmp, err := sqlarray.CompareTable1Storage(t.d)
	if err != nil {
		return err
	}
	m["btree.leaf_pages_per_krow"] = float64(cmp.ScalarStats.LeafPages) / rows * 1000
	return nil
}
