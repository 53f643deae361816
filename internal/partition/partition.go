// Package partition splits a table across multiple database files by
// clustered-key range. The paper's two large deployments both shard
// this way: the turbulence database spreads its Morton-ordered cube
// keys over many database files, and the N-body archive splits
// snapshots across servers by (step, particle) key range. A partition
// here is a full engine.DB — its own disk file, buffer pool and WAL —
// so partitions load in parallel (each member has its own write latch)
// and crash-recover independently.
//
// Queries run scatter-gather through sqlmini.ScatterExec: sargable
// WHERE bounds prune members whose key range cannot match, survivors
// scan under their own snapshots on worker goroutines, and partials
// merge in key order. For spatial data keyed by 3-D Morton code, Box
// decomposes an axis-aligned box into code ranges (sfc.BoxRanges3D)
// and scans only the members and key ranges the box touches.
package partition

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"sqlarray/internal/engine"
	"sqlarray/internal/sfc"
	"sqlarray/internal/sqlmini"
)

// Mode names how keys were laid out across the partitions. Both modes
// split the key space by range; mortonMode additionally declares that
// keys are 3-D Morton codes, enabling Box queries.
type Mode string

const (
	RangeMode  Mode = "range"
	mortonMode Mode = "morton3d"
)

// Spec describes the split of the clustered-key space: Splits holds the
// ascending inclusive upper bounds of every partition but the last,
// which covers the remainder. len(Splits)+1 partitions total.
type Spec struct {
	Mode   Mode    `json:"mode"`
	Splits []int64 `json:"splits"`
}

// Parts returns the number of partitions the spec describes.
func (s Spec) Parts() int { return len(s.Splits) + 1 }

// Range returns the inclusive key range of partition i.
func (s Spec) Range(i int) (lo, hi int64) {
	lo = math.MinInt64
	if i > 0 {
		lo = s.Splits[i-1] + 1
	}
	hi = math.MaxInt64
	if i < len(s.Splits) {
		hi = s.Splits[i]
	}
	return lo, hi
}

// locate returns the partition index owning key.
func (s Spec) locate(key int64) int {
	return sort.Search(len(s.Splits), func(i int) bool { return key <= s.Splits[i] })
}

func (s Spec) validate() error {
	switch s.Mode {
	case RangeMode, mortonMode:
	default:
		return fmt.Errorf("partition: unknown mode %q", s.Mode)
	}
	for i := 1; i < len(s.Splits); i++ {
		if s.Splits[i] <= s.Splits[i-1] {
			return fmt.Errorf("partition: splits must ascend, got %d after %d", s.Splits[i], s.Splits[i-1])
		}
	}
	return nil
}

// MortonSpec8 builds the canonical eight-way Morton split: one
// partition per octant of a side^3 cube (side a power of two ≤ 2^21).
// Octant o covers codes [o·side³/8, (o+1)·side³/8) because the three
// top coordinate bits are the three top code bits.
func MortonSpec8(side uint32) (Spec, error) {
	if side == 0 || side&(side-1) != 0 || side > sfc.Max3DCoord+1 {
		return Spec{}, fmt.Errorf("partition: side must be a power of two in [1, 2^21], got %d", side)
	}
	total := uint64(side) * uint64(side) * uint64(side)
	splits := make([]int64, 7)
	for o := uint64(1); o < 8; o++ {
		splits[o-1] = int64(o*total/8) - 1
	}
	return Spec{Mode: mortonMode, Splits: splits}, nil
}

// Store is a table space split across member databases per a Spec.
type Store struct {
	spec Spec
	dbs  []*engine.DB
}

// New assembles a partitioned store from pre-opened member databases,
// one per spec range, ordered by key range.
func New(spec Spec, dbs []*engine.DB) (*Store, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if len(dbs) != spec.Parts() {
		return nil, fmt.Errorf("partition: spec wants %d members, got %d", spec.Parts(), len(dbs))
	}
	return &Store{spec: spec, dbs: dbs}, nil
}

// Member returns partition i's database (benchmarks read its counters).
func (s *Store) Member(i int) *engine.DB { return s.dbs[i] }

// Partitions adapts the store for sqlmini's scatter-gather executor.
func (s *Store) Partitions() []sqlmini.Partition {
	parts := make([]sqlmini.Partition, len(s.dbs))
	for i, db := range s.dbs {
		lo, hi := s.spec.Range(i)
		parts[i] = sqlmini.Partition{DB: db, Lo: lo, Hi: hi}
	}
	return parts
}

// CreateTable creates the table in every member database.
func (s *Store) CreateTable(name string, schema engine.Schema) error {
	for i, db := range s.dbs {
		if _, err := db.CreateTable(name, schema); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// BulkLoad drains src, routes every row to the member owning its key,
// and runs the per-member bulk loads concurrently — each member has its
// own write latch and WAL, so the loads overlap end to end. Per-member
// all-or-nothing durability carries over; a failure reports which
// members had already committed.
//
// src only promises a row until its next Next call, so routing copies
// each row into its member's memberRows before asking for the next.
func (s *Store) BulkLoad(table string, src engine.BulkSource, opts engine.BulkOptions) (engine.BulkStats, error) {
	// CreateTable gave every member the same schema; member 0's speaks
	// for all.
	tbl, err := s.dbs[0].Table(table)
	if err != nil {
		return engine.BulkStats{}, err
	}
	schema := tbl.Schema()
	keyCol, ncol := schema.Key, len(schema.Columns)
	members := make([]memberRows, len(s.dbs))
	for i := range members {
		members[i].ncol = ncol
	}
	for {
		vals, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return engine.BulkStats{}, err
		}
		if len(vals) != ncol {
			return engine.BulkStats{}, fmt.Errorf("partition: %w: %d values for %d columns",
				engine.ErrTypeError, len(vals), ncol)
		}
		key, err := vals[keyCol].AsInt()
		if err != nil {
			return engine.BulkStats{}, err
		}
		members[s.spec.locate(key)].add(vals)
	}

	stats := make([]engine.BulkStats, len(s.dbs))
	errs := make([]error, len(s.dbs))
	var wg sync.WaitGroup
	for i := range members {
		if len(members[i].rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbl, err := s.dbs[i].Table(table)
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = tbl.BulkLoad(engine.NewValuesSource(members[i].rows), opts)
		}(i)
	}
	wg.Wait()

	var total engine.BulkStats
	var committed, failed []int
	for i := range s.dbs {
		if errs[i] != nil {
			failed = append(failed, i)
			continue
		}
		if len(members[i].rows) > 0 {
			committed = append(committed, i)
		}
		total.Rows += stats[i].Rows
		total.RowBytes += stats[i].RowBytes
		total.BlobBytes += stats[i].BlobBytes
		total.LeafPages += stats[i].LeafPages
		total.BlobPages += stats[i].BlobPages
	}
	if len(failed) > 0 {
		return total, fmt.Errorf("partition: load failed on member(s) %v (committed on %v): %w",
			failed, committed, errs[failed[0]])
	}
	return total, nil
}

// Sizes of the blocks memberRows copies rows into.
const (
	chunkRows  = 512      // rows per value chunk
	bytesBlock = 64 << 10 // bytes per payload block (a larger payload gets its own)
)

// memberRows holds copies of the rows routed to one member. Each row is
// a window of ncol values in a fixed-size chunk, and each binary payload
// is copied into a byte block the member owns, so nothing references the
// router's source and the member's load reads contiguous memory.
type memberRows struct {
	ncol  int
	chunk []engine.Value   // the chunk being filled
	bytes []byte           // the payload block being filled
	rows  [][]engine.Value // one window per row, in routing order
}

// add copies one row, payloads included.
func (m *memberRows) add(vals []engine.Value) {
	if len(m.chunk)+m.ncol > cap(m.chunk) {
		m.chunk = make([]engine.Value, 0, chunkRows*m.ncol)
	}
	start := len(m.chunk)
	m.chunk = append(m.chunk, vals...)
	row := m.chunk[start:len(m.chunk):len(m.chunk)]
	for j := range row {
		if b := row[j].B; len(b) > 0 {
			row[j].B = m.copyBytes(b)
		}
	}
	m.rows = append(m.rows, row)
}

// copyBytes returns a copy of b in the member's current payload block.
func (m *memberRows) copyBytes(b []byte) []byte {
	if len(b) > cap(m.bytes)-len(m.bytes) {
		m.bytes = make([]byte, 0, max(bytesBlock, len(b)))
	}
	off := len(m.bytes)
	m.bytes = append(m.bytes, b...)
	return m.bytes[off:len(m.bytes):len(m.bytes)]
}

// Query executes one SELECT scatter-gather across the partitions.
func (s *Store) Query(query string, opts sqlmini.ExecOptions) (*sqlmini.Result, sqlmini.ScatterStats, error) {
	return sqlmini.ScatterRun(s.Partitions(), query, opts)
}

// Explain renders the scatter-gather plan for a query. It accepts
// either "EXPLAIN [ANALYZE] SELECT ..." or a bare SELECT (treated as
// plain EXPLAIN). ANALYZE executes the statement on every live member
// and annotates the tree with per-partition runtime metrics.
func (s *Store) Explain(query string, opts sqlmini.ExecOptions) (string, sqlmini.ScatterStats, error) {
	stmt, err := sqlmini.ParseStatement(query)
	if err != nil {
		return "", sqlmini.ScatterStats{}, err
	}
	var ex *sqlmini.ExplainStmt
	switch t := stmt.(type) {
	case *sqlmini.ExplainStmt:
		ex = t
	case *sqlmini.SelectStmt:
		ex = &sqlmini.ExplainStmt{Stmt: t}
	default:
		return "", sqlmini.ScatterStats{}, fmt.Errorf("partition: Explain supports SELECT, got %T", stmt)
	}
	return sqlmini.ScatterExplain(s.Partitions(), ex, opts)
}

// Rows sums the table's row count over the members.
func (s *Store) Rows(table string) (int64, error) {
	var n int64
	for _, db := range s.dbs {
		tbl, err := db.Table(table)
		if err != nil {
			return 0, err
		}
		n += tbl.Rows()
	}
	return n, nil
}

// BoxStats reports how much of a partitioned Morton table a box query
// touched, against the total it would have touched as a full scan.
type BoxStats struct {
	Ranges            int // Morton code ranges the box decomposed into
	Partitions        int // members of the store
	PartitionsScanned int // members at least one range intersected
	KeysExamined      int // keys the range scans yielded before the box filter
}

// Box returns, in ascending key order, the keys of table whose 3-D
// Morton-decoded coordinates lie inside the inclusive box [lo, hi].
// The box decomposes into Morton code ranges; members whose key range
// intersects no code range are never touched, and each survivor scans
// only the intersecting ranges under one snapshot. Codes from coarse
// covering ranges (maxRanges cap) are filtered out by decoding.
func (s *Store) Box(table string, lo, hi [3]uint32, maxRanges int) ([]int64, BoxStats, error) {
	stats := BoxStats{Partitions: len(s.dbs)}
	if s.spec.Mode != mortonMode {
		return nil, stats, fmt.Errorf("partition: Box requires %q mode, store is %q", mortonMode, s.spec.Mode)
	}
	ranges, err := sfc.BoxRanges3D(lo, hi, maxRanges)
	if err != nil {
		return nil, stats, err
	}
	stats.Ranges = len(ranges)

	// Per-member work list: the code ranges clipped to its key range.
	type span struct{ lo, hi int64 } // inclusive
	work := make([][]span, len(s.dbs))
	for _, r := range ranges {
		rLo, rHi := int64(r.Lo), int64(r.Hi-1) // codes fit in 63 bits
		for i := s.spec.locate(rLo); i < len(s.dbs); i++ {
			pLo, pHi := s.spec.Range(i)
			if pLo > rHi {
				break
			}
			work[i] = append(work[i], span{maxI64(rLo, pLo), minI64(rHi, pHi)})
		}
	}

	type partHits struct {
		keys     []int64
		examined int
		err      error
	}
	hits := make([]partHits, len(s.dbs))
	var wg sync.WaitGroup
	for i, spans := range work {
		if len(spans) == 0 {
			continue
		}
		stats.PartitionsScanned++
		wg.Add(1)
		go func(i int, spans []span) {
			defer wg.Done()
			tbl, err := s.dbs[i].Table(table)
			if err != nil {
				hits[i].err = err
				return
			}
			snap := s.dbs[i].Snapshot()
			defer snap.Release()
			for _, sp := range spans {
				cur, err := tbl.CursorRangeAt(snap, sp.lo, sp.hi)
				if err != nil {
					hits[i].err = err
					return
				}
				for cur.Next() {
					hits[i].examined++
					x, y, z := sfc.Decode3D(uint64(cur.Key()))
					if x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && z >= lo[2] && z <= hi[2] {
						hits[i].keys = append(hits[i].keys, cur.Key())
					}
				}
				err = cur.Err()
				cur.Close()
				if err != nil {
					hits[i].err = err
					return
				}
			}
		}(i, spans)
	}
	wg.Wait()

	var keys []int64
	for i := range hits {
		if hits[i].err != nil {
			return nil, stats, hits[i].err
		}
		stats.KeysExamined += hits[i].examined
		keys = append(keys, hits[i].keys...) // partition order = key order
	}
	return keys, stats, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
