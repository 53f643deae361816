package sqlarray

import (
	"fmt"
	"time"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// This file defines the paper's evaluation (§6, Table 1): two
// 5-dimensional-vector tables — Tscalar with the components in five
// FLOAT columns, Tvector with them in one short array blob — the five
// queries that isolate the UDF-boundary cost, and the §6.2/§7.1
// quantities derived from a run. The measuring is bench/'s job
// (`bash bench/run.sh -experiments` writes bench/EXPERIMENTS.md).

// Table1Queries are the five test queries, verbatim from §6.3.
var Table1Queries = [5]string{
	"SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)",
	"SELECT COUNT(*) FROM Tvector WITH (NOLOCK)",
	"SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)",
	"SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)",
	"SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)",
}

// QueryMeasurement is one Table 1 row: measured CPU and counted bytes,
// with the paper's three columns (execution time, CPU load, I/O rate)
// reconstructed as time = max(CPU, modeled I/O).
type QueryMeasurement struct {
	Index   int // 1-based query number
	Query   string
	Wall    time.Duration // raw wall-clock on this machine
	CPU     time.Duration // process CPU consumed by the query
	Bytes   uint64        // bytes scanned (buffer pool)
	Time    time.Duration // reconstructed execution time
	CPULoad float64       // percent, CPU/Time
	IOMBps  float64       // Bytes/Time in MB/s
}

// SetupTable1 populates Tscalar and Tvector with identical data:
// clustered BIGINT id plus a 5-vector of float64, stored as five scalar
// columns versus one short-array blob (24-byte header + 40 bytes of
// payload, §6.2).
func SetupTable1(db *Database, rows int) error {
	scalarSchema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v1", Type: engine.ColFloat64},
		engine.Column{Name: "v2", Type: engine.ColFloat64},
		engine.Column{Name: "v3", Type: engine.ColFloat64},
		engine.Column{Name: "v4", Type: engine.ColFloat64},
		engine.Column{Name: "v5", Type: engine.ColFloat64},
	)
	if err != nil {
		return err
	}
	vectorSchema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
	)
	if err != nil {
		return err
	}
	ts, err := db.CreateTable("Tscalar", scalarSchema)
	if err != nil {
		return err
	}
	tv, err := db.CreateTable("Tvector", vectorSchema)
	if err != nil {
		return err
	}
	// dbo.EmptyFunction mirrors the paper's Query 5 probe.
	db.Funcs().Register("dbo.EmptyFunction", 2, func(args []engine.Value) (engine.Value, error) {
		return engine.FloatValue(0), nil
	})
	vec, err := core.New(core.Short, core.Float64, 5)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		// A cheap deterministic pseudo-vector; Query 3/4 sums make the
		// two tables comparable.
		x := float64(i%1000) / 1000
		comps := [5]float64{x, 2 * x, 3 * x, 4 * x, 5 * x}
		err := ts.Insert([]engine.Value{
			engine.IntValue(int64(i)),
			engine.FloatValue(comps[0]), engine.FloatValue(comps[1]), engine.FloatValue(comps[2]),
			engine.FloatValue(comps[3]), engine.FloatValue(comps[4]),
		})
		if err != nil {
			return err
		}
		for k, c := range comps {
			vec.SetFloatAt(k, c)
		}
		if err := tv.Insert([]engine.Value{engine.IntValue(int64(i)), engine.BinaryValue(vec.Bytes())}); err != nil {
			return err
		}
	}
	return db.Pool().FlushAll()
}

// StorageComparison is the §6.2 size claim: the vector table is bigger
// because of the per-row array headers ("this second table had 24 bytes
// overhead per row ... which made the whole table 43 % bigger").
type StorageComparison struct {
	ScalarStats engine.TableStats
	VectorStats engine.TableStats
	// PageRatio is vector leaf pages / scalar leaf pages.
	PageRatio float64
	// ByteRatio is vector row bytes / scalar row bytes.
	ByteRatio float64
}

// CompareTable1Storage measures both tables' footprints.
func CompareTable1Storage(db *Database) (StorageComparison, error) {
	ts, err := db.Table("Tscalar")
	if err != nil {
		return StorageComparison{}, err
	}
	tv, err := db.Table("Tvector")
	if err != nil {
		return StorageComparison{}, err
	}
	ss, err := ts.Stats()
	if err != nil {
		return StorageComparison{}, err
	}
	vs, err := tv.Stats()
	if err != nil {
		return StorageComparison{}, err
	}
	out := StorageComparison{ScalarStats: ss, VectorStats: vs}
	if ss.LeafPages > 0 {
		out.PageRatio = float64(vs.LeafPages) / float64(ss.LeafPages)
	}
	if ss.RowBytes > 0 {
		out.ByteRatio = float64(vs.RowBytes) / float64(ss.RowBytes)
	}
	return out, nil
}

// UDFCostBreakdown carries the §7.1 derived quantities.
type UDFCostBreakdown struct {
	Rows int
	// PerCallCost is (CPU_Q4 − CPU_Q3)/rows: the marginal cost of one
	// boundary crossing plus item extraction (paper: ≈2 µs/call).
	PerCallCost time.Duration
	// PerEmptyCallCost is (CPU_Q5 − CPU_Q3)/rows: the pure call cost.
	PerEmptyCallCost time.Duration
	// EmptyCallShare is (CPU_Q5 − CPU_Q3)/CPU_Q5: the fraction of
	// query-5 CPU attributable to the boundary alone (paper: ≥38 %).
	EmptyCallShare float64
	// ExtractionIncrement is (CPU_Q4 − CPU_Q5)/CPU_Q5: added cost of
	// actually extracting the item (paper: +22 %).
	ExtractionIncrement float64
}

// DeriveUDFCost computes the §7.1 numbers from Table 1 measurements.
func DeriveUDFCost(ms []QueryMeasurement, rows int) (UDFCostBreakdown, error) {
	if len(ms) != 5 {
		return UDFCostBreakdown{}, fmt.Errorf("sqlarray: want 5 measurements, got %d", len(ms))
	}
	cpu3, cpu4, cpu5 := ms[2].CPU, ms[3].CPU, ms[4].CPU
	out := UDFCostBreakdown{Rows: rows}
	if rows > 0 {
		out.PerCallCost = (cpu4 - cpu3) / time.Duration(rows)
		out.PerEmptyCallCost = (cpu5 - cpu3) / time.Duration(rows)
	}
	if cpu5 > 0 {
		out.EmptyCallShare = float64(cpu5-cpu3) / float64(cpu5)
		out.ExtractionIncrement = float64(cpu4-cpu5) / float64(cpu5)
	}
	return out, nil
}
