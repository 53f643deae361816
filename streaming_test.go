package sqlarray

// Golden-equivalence tests for the streaming entry points: every query
// the integration suite runs must return identical results through
// QueryRows (the Volcano pipeline consumed incrementally) as through the
// materializing Query.

import (
	"bytes"
	"testing"

	"sqlarray/internal/engine"
)

func sameValue(a, b engine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case 0:
		return true
	case engine.ColInt64:
		return a.I == b.I
	case engine.ColFloat64:
		return a.F == b.F || (a.F != a.F && b.F != b.F)
	default:
		return bytes.Equal(a.B, b.B)
	}
}

func TestQueryRowsMatchesQuery(t *testing.T) {
	db := memDatabase(t)
	vectorTable(t, db, "obs", 200)
	queries := []string{
		"SELECT SUM(FloatArray.Item_1(v, 0)) FROM obs",
		"SELECT MAX(FloatArray.Sum(v)) FROM obs",
		"SELECT COUNT(*) FROM obs WHERE FloatArray.Item_1(v, 2) > 100",
		"SELECT FloatArray.Item_1(FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0), 3) FROM dual",
		"SELECT id, FloatArray.Sum(v) FROM obs WHERE id >= 10 AND id < 20",
		"SELECT TOP 5 id, v FROM obs",
		"SELECT id FROM obs WHERE id = 137",
		"SELECT COUNT(*), MIN(id), MAX(id) FROM obs WITH (NOLOCK)",
		"SELECT id FROM obs WHERE id >= 190 LIMIT 3",
	}
	for _, q := range queries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		rows, err := db.QueryRows(q)
		if err != nil {
			t.Fatalf("QueryRows(%q): %v", q, err)
		}
		var got [][]engine.Value
		for rows.Next() {
			got = append(got, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("QueryRows(%q): %v", q, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("Close(%q): %v", q, err)
		}
		if len(got) != len(want.Rows) {
			t.Fatalf("QueryRows(%q) = %d rows, Query = %d", q, len(got), len(want.Rows))
		}
		for i := range got {
			for j := range got[i] {
				if !sameValue(got[i][j], want.Rows[i][j]) {
					t.Errorf("QueryRows(%q) row %d col %d = %v, want %v",
						q, i, j, got[i][j], want.Rows[i][j])
				}
			}
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after streaming sweep = %d", got)
	}
}

func TestQueryArrayRowsStreams(t *testing.T) {
	db := memDatabase(t)
	vectorTable(t, db, "obs", 50)
	cols := ArrayColumns{"v": "FloatArray"}
	rows, err := db.QueryArrayRows("SELECT SUM(v[0]) FROM obs WHERE v[2] <= 100", cols)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rows.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if got := rows.Row()[0].F; got != 55 {
		t.Errorf("streamed sugar query = %g, want 55", got)
	}
	if rows.Next() {
		t.Error("aggregate must yield exactly one row")
	}
}

func TestStreamingAbandonedMidScan(t *testing.T) {
	// A client walking away from a cursor mid-table (the sqlsh TOP-n use
	// case) must leave the buffer pool clean.
	db := memDatabase(t)
	vectorTable(t, db, "obs", 2000)
	rows, err := db.QueryRows("SELECT id, FloatArray.Sum(v) FROM obs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("short stream: %v", rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after abandoning cursor = %d", got)
	}
	if err := db.DropCleanBuffers(); err != nil {
		t.Errorf("DropCleanBuffers after abandoning cursor: %v", err)
	}
}
