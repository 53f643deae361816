//go:build !race

package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/spectra"
)

// The race detector allocates on its own; the bounds hold without it.

// spectraDB is a resident spectra table of n 2000-bin spectra, the shape
// the point reads of §2.2 run against, with the T-SQL functions.
func spectraDB(t testing.TB, n int) *engine.DB {
	t.Helper()
	db := memDB(t)
	st, err := spectra.CreateStore(db, "spectra")
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		s, err := spectra.Synthesize(gen, spectra.SynthesisParams{
			Bins: 2000, LoWave: 3800, HiWave: 9200, Z: 0.3 * gen.Float64(), SNR: 20, BadFrac: 0.01,
			LineSeed: int64(i % 7),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ID = int64(i)
		if err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	RegisterTSQL(db)
	return db
}

// TestPointStatementAllocations bounds what one point statement
// allocates on a resident spectra table: its parse, a §2.2-shaped
// SELECT of a scalar and one element of a MAX array, a point UPDATE and
// a point DELETE. A statement pays for what it returns and for the
// state its plan must hold, not for its front end: one lexing pass with
// no token slice, AST nodes carved a few to an allocation, and no plan
// tree unless EXPLAIN or instrumentation reads one (see ARCHITECTURE.md's
// sqlmini section for the SELECT's 34).
func TestPointStatementAllocations(t *testing.T) {
	db := spectraDB(t, 8)
	tbl, err := db.Table("spectra")
	if err != nil {
		t.Fatal(err)
	}
	// Every DELETE run removes one spare row; AllocsPerRun runs its
	// function once more than asked, to warm up. The statements are
	// spelled before measuring.
	const runs = 100
	var deletes []string
	for key := int64(100); key < 100+runs+1; key++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(key), engine.FloatValue(0),
			engine.Null, engine.Null, engine.Null, engine.Null}); err != nil {
			t.Fatal(err)
		}
		deletes = append(deletes, fmt.Sprintf("DELETE FROM spectra WHERE id = %d", key))
	}
	const point = "SELECT z, FloatArrayMax.Item_1(flux, 17) FROM spectra WHERE id = 3"
	affected := func(res *ExecResult, err error) error {
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("%d rows affected", res.RowsAffected)
		}
		return err
	}
	for _, c := range []struct {
		name  string
		bound float64 // as measured
		run   func() error
	}{
		{"Parse", 7, func() error { _, err := Parse(point); return err }},
		{"SELECT", 34, func() error {
			res, err := Run(db, point)
			if err == nil && len(res.Rows) != 1 {
				err = fmt.Errorf("%d rows", len(res.Rows))
			}
			return err
		}},
		{"UPDATE", 34, func() error { return affected(Execute(db, "UPDATE spectra SET z = z + 1 WHERE id = 5")) }},
		{"DELETE", 20, func() error {
			q := deletes[0]
			deletes = deletes[1:]
			return affected(Execute(db, q))
		}},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("a point %s allocates %.0f times, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
