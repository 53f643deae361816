package partition

import (
	"fmt"
	"io"
	"math"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/sfc"
	"sqlarray/internal/sqlmini"
)

// memDB opens an in-memory database without a log.
func memDB(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// metric reads one series of a metrics registry. A name the registry
// does not hold fails the test, so a misspelt name cannot pass an == 0
// check.
func metric(t testing.TB, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metrics registry has no series %q", name)
	}
	return v
}

const side = 16 // 16³ = 4096 grid points, one row per Morton code

func gridSchema(t *testing.T) engine.Schema {
	t.Helper()
	s, err := engine.NewSchema(
		engine.Column{Name: "zindex", Type: engine.ColInt64},
		engine.Column{Name: "density", Type: engine.ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gridRows builds one row per cell of the side³ grid, keyed by Morton
// code, in z-shuffled (code) order.
func gridRows(t *testing.T) [][]engine.Value {
	t.Helper()
	n := side * side * side
	rows := make([][]engine.Value, 0, n)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				code, err := sfc.Encode3D(x, y, z)
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, []engine.Value{
					engine.IntValue(int64(code)),
					engine.FloatValue(float64(x+y+z) / 3),
				})
			}
		}
	}
	return rows
}

// mortonStore builds the 8-way octant-partitioned store loaded with the
// full grid.
func mortonStore(t *testing.T) *Store {
	t.Helper()
	spec, err := MortonSpec8(side)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*engine.DB, spec.Parts())
	for i := range dbs {
		dbs[i] = memDB(t)
	}
	st, err := New(spec, dbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("cube", gridSchema(t)); err != nil {
		t.Fatal(err)
	}
	bs, err := st.BulkLoad("cube", engine.NewValuesSource(gridRows(t)), engine.BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Rows != side*side*side {
		t.Fatalf("loaded %d rows, want %d", bs.Rows, side*side*side)
	}
	return st
}

func TestBulkLoadRoutesByKey(t *testing.T) {
	st := mortonStore(t)
	// The octant split divides the code space evenly: 512 rows each.
	for i := 0; i < st.spec.Parts(); i++ {
		tbl, err := st.Member(i).Table("cube")
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Rows(); got != 512 {
			t.Errorf("member %d holds %d rows, want 512", i, got)
		}
		lo, hi := st.spec.Range(i)
		snap := st.Member(i).Snapshot()
		cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
			if cur.Key() < lo || cur.Key() > hi {
				t.Fatalf("member %d holds key %d outside [%d, %d]", i, cur.Key(), lo, hi)
			}
		}
		cur.Close()
		snap.Release()
	}
	if n, err := st.Rows("cube"); err != nil || n != side*side*side {
		t.Fatalf("Rows = %d, %v", n, err)
	}
}

// reusedSource yields rows through one value buffer and one payload
// buffer, overwritten on every Next — all the BulkSource contract
// promises a loader.
type reusedSource struct {
	rows [][]engine.Value
	i    int
	row  []engine.Value
	buf  []byte
}

func (s *reusedSource) Next() ([]engine.Value, error) {
	if s.i == len(s.rows) {
		return nil, io.EOF
	}
	src := s.rows[s.i]
	s.i++
	s.row = append(s.row[:0], src...)
	for j, v := range s.row {
		if len(v.B) > 0 {
			s.buf = append(s.buf[:0], v.B...)
			s.row[j].B = s.buf
		}
	}
	return s.row, nil
}

func TestBulkLoadCopiesReusedSourceRows(t *testing.T) {
	spec, err := MortonSpec8(side)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*engine.DB, spec.Parts())
	for i := range dbs {
		dbs[i] = memDB(t)
	}
	st, err := New(spec, dbs)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := engine.NewSchema(
		engine.Column{Name: "zindex", Type: engine.ColInt64},
		engine.Column{Name: "tag", Type: engine.ColVarBinary},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("cube", gridSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("tags", payload); err != nil {
		t.Fatal(err)
	}
	grid := gridRows(t)
	tags := make([][]engine.Value, len(grid))
	for i, r := range grid {
		tags[i] = []engine.Value{r[0], engine.BinaryValue([]byte(fmt.Sprintf("cell-%d", r[0].I)))}
	}
	for _, load := range []struct {
		table string
		rows  [][]engine.Value
	}{{"cube", grid}, {"tags", tags}} {
		bs, err := st.BulkLoad(load.table, &reusedSource{rows: load.rows}, engine.BulkOptions{})
		if err != nil {
			t.Fatalf("%s: %v", load.table, err)
		}
		if bs.Rows != side*side*side {
			t.Fatalf("%s: loaded %d rows, want %d", load.table, bs.Rows, side*side*side)
		}
		for _, want := range load.rows {
			db := st.Member(st.spec.locate(want[0].I))
			tbl, err := db.Table(load.table)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tbl.Get(want[0].I)
			if err != nil {
				t.Fatalf("%s: key %d: %v", load.table, want[0].I, err)
			}
			if got[1].F != want[1].F || string(got[1].B) != string(want[1].B) {
				t.Fatalf("%s: key %d holds %v, want %v", load.table, want[0].I, got[1], want[1])
			}
		}
	}
}

func TestScatterQueryOverStore(t *testing.T) {
	st := mortonStore(t)
	res, ss, err := st.Query("SELECT COUNT(*), AVG(density) FROM cube", sqlmini.ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Scanned != 8 {
		t.Errorf("unbounded aggregate scanned %d members, want 8", ss.Scanned)
	}
	if res.Rows[0][0].I != side*side*side {
		t.Errorf("COUNT(*) = %d", res.Rows[0][0].I)
	}
	// mean of (x+y+z)/3 over the cube = mean coordinate = (side-1)/2.
	if got, want := res.Rows[0][1].F, float64(side-1)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("AVG(density) = %g, want %g", got, want)
	}
	// A key-bounded aggregate prunes members.
	_, ss, err = st.Query("SELECT COUNT(*) FROM cube WHERE zindex < 512", sqlmini.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Scanned != 1 {
		t.Errorf("octant-0 count scanned %d members, want 1", ss.Scanned)
	}
}

// boxBrute returns the expected hit count for an inclusive box by
// brute-force enumeration.
func boxBrute(lo, hi [3]uint32) int {
	n := 0
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				n++
			}
		}
	}
	return n
}

func checkBox(t *testing.T, st *Store, lo, hi [3]uint32, maxRanges int) BoxStats {
	t.Helper()
	keys, bs, err := st.Box("cube", lo, hi, maxRanges)
	if err != nil {
		t.Fatal(err)
	}
	if want := boxBrute(lo, hi); len(keys) != want {
		t.Fatalf("box %v..%v: %d keys, want %d", lo, hi, len(keys), want)
	}
	for i, k := range keys {
		x, y, z := sfc.Decode3D(uint64(k))
		if x < lo[0] || x > hi[0] || y < lo[1] || y > hi[1] || z < lo[2] || z > hi[2] {
			t.Fatalf("key %d decodes to (%d,%d,%d), outside box", k, x, y, z)
		}
		if i > 0 && keys[i-1] >= k {
			t.Fatalf("keys out of order: %d then %d", keys[i-1], k)
		}
	}
	return bs
}

func TestBoxQueryCorrectness(t *testing.T) {
	st := mortonStore(t)
	// Inside one octant.
	bs := checkBox(t, st, [3]uint32{0, 0, 0}, [3]uint32{3, 3, 3}, 0)
	if bs.PartitionsScanned != 1 {
		t.Errorf("corner box scanned %d members, want 1", bs.PartitionsScanned)
	}
	// Straddling every octant boundary.
	bs = checkBox(t, st, [3]uint32{6, 6, 6}, [3]uint32{9, 9, 9}, 0)
	if bs.PartitionsScanned != 8 {
		t.Errorf("center box scanned %d members, want 8", bs.PartitionsScanned)
	}
	// Coarse covering under a tight range cap must stay exact: the
	// decoder filter drops the extra codes the coarse ranges sweep in.
	tight := checkBox(t, st, [3]uint32{1, 2, 3}, [3]uint32{9, 6, 12}, 4)
	exact := checkBox(t, st, [3]uint32{1, 2, 3}, [3]uint32{9, 6, 12}, 0)
	if tight.Ranges > 4+1 {
		t.Errorf("capped decomposition produced %d ranges", tight.Ranges)
	}
	if tight.KeysExamined < exact.KeysExamined {
		t.Errorf("coarse cover examined %d keys, exact %d — cap should widen, not narrow",
			tight.KeysExamined, exact.KeysExamined)
	}
}

// TestBoxPrunesPartitionsAndPages is the acceptance check for the
// partitioned layout: a Morton-decomposed box query must touch strictly
// fewer partitions AND strictly fewer pages than scanning the whole
// table, not merely return the right rows.
func TestBoxPrunesPartitionsAndPages(t *testing.T) {
	st := mortonStore(t)

	// Unpartitioned twin: same rows in one database.
	mono := memDB(t)
	tbl, err := mono.CreateTable("cube", gridSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BulkLoad(engine.NewValuesSource(gridRows(t)), engine.BulkOptions{}); err != nil {
		t.Fatal(err)
	}

	// An octant-aligned box decomposes into one code range; a ragged box
	// at this tiny grid size pays more per-range tree descents than the
	// whole (18-page) table costs to scan, so alignment is what makes
	// the page comparison meaningful at test scale.
	lo, hi := [3]uint32{0, 0, 0}, [3]uint32{7, 7, 7}

	poolReads := func() uint64 {
		var n uint64
		for i := 0; i < st.spec.Parts(); i++ {
			n += metric(t, st.Member(i).Metrics(), "pages.logical_reads")
		}
		return n
	}

	r0 := poolReads()
	keys, bs, err := st.Box("cube", lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	boxPages := poolReads() - r0

	if want := boxBrute(lo, hi); len(keys) != want {
		t.Fatalf("box returned %d keys, want %d", len(keys), want)
	}
	if bs.PartitionsScanned >= bs.Partitions {
		t.Fatalf("box scanned %d of %d partitions — no partition pruning", bs.PartitionsScanned, bs.Partitions)
	}

	// Full scan of the unpartitioned twin with the same decode filter.
	m0 := metric(t, mono.Metrics(), "pages.logical_reads")
	snap := mono.Snapshot()
	cur, err := tbl.CursorRangeAt(snap, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for cur.Next() {
		x, y, z := sfc.Decode3D(uint64(cur.Key()))
		if x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && z >= lo[2] && z <= hi[2] {
			found++
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	snap.Release()
	fullPages := metric(t, mono.Metrics(), "pages.logical_reads") - m0

	if found != len(keys) {
		t.Fatalf("full scan found %d, box found %d", found, len(keys))
	}
	if boxPages >= fullPages {
		t.Fatalf("box query read %d pages, full scan %d — no page pruning", boxPages, fullPages)
	}
	t.Logf("box: %d/%d partitions, %d pages; full scan: %d pages (%.1fx fewer)",
		bs.PartitionsScanned, bs.Partitions, boxPages, fullPages, float64(fullPages)/float64(boxPages))
}
