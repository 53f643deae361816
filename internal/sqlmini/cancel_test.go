package sqlmini

import (
	"context"
	"errors"
	"testing"
)

// The executor polls ExecOptions.Ctx in every operator scan/drain loop
// (the ctxloop analyzer proves the polls exist; these tests prove they
// work): a canceled context aborts the query with context.Canceled and
// the normal close path still releases every page pin.

func TestCancelBeforeFirstRow(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, batchSize := range []int{0, 3} {
		rows, err := queryWith(db, "SELECT id, v1 FROM Tscalar", ExecOptions{Ctx: ctx, batchSize: batchSize})
		if err != nil {
			t.Fatalf("batchSize=%d: open: %v", batchSize, err)
		}
		if rows.Next() {
			t.Errorf("batchSize=%d: Next yielded a row under a canceled ctx", batchSize)
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Errorf("batchSize=%d: Err = %v, want context.Canceled", batchSize, rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Errorf("batchSize=%d: Close: %v", batchSize, err)
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after canceled queries = %d", got)
	}
}

func TestCancelMidStream(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A small batch keeps the drain's buffered tail short, so the cancel
	// lands within a few rows instead of after a full 1024-row batch.
	rows, err := queryWith(db, "SELECT id FROM Tscalar", ExecOptions{Ctx: ctx, batchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if n == 1 {
			cancel()
		}
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v after cancel mid-stream, want context.Canceled", rows.Err())
	}
	if n == 0 || n >= 100 {
		t.Errorf("drained %d rows, want a partial result (0 < n < 100)", n)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after mid-stream cancel = %d", got)
	}
}

func TestCancelAggregates(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []ExecOptions{
		{Ctx: ctx},               // serial aggregate
		{Ctx: ctx, batchSize: 3}, // serial aggregate, many batches
		{Ctx: ctx, Parallelism: 2, parallelThreshold: 1},               // parallel fan-out
		{Ctx: ctx, Parallelism: 2, parallelThreshold: 1, batchSize: 3}, // parallel fan-out, many batches
	}
	for i, opts := range cases {
		_, err := RunWith(db, "SELECT SUM(v1), COUNT(*) FROM Tscalar", opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("case %d: err = %v, want context.Canceled", i, err)
		}
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after canceled aggregates = %d", got)
	}
}

func TestCancelDML(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		"DELETE FROM Tscalar WHERE v1 >= 0",
		"UPDATE Tscalar SET v1 = v1 + 1 WHERE v1 >= 0",
	} {
		if _, err := executeWith(db, sql, ExecOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", sql, err)
		}
	}
	// The canceled read phase must not have written anything.
	if got := scalarFloat(t, db, "SELECT COUNT(*) FROM Tscalar"); got != 100 {
		t.Errorf("COUNT(*) after canceled DELETE = %g, want 100", got)
	}
	if got := scalarFloat(t, db, "SELECT SUM(v1) FROM Tscalar"); got != 4950 {
		t.Errorf("SUM(v1) after canceled UPDATE = %g, want 4950", got)
	}
	if got := db.Pool().PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after canceled DML = %d", got)
	}
}
