package engine

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"sqlarray/internal/pages"
	"sqlarray/internal/wal"
)

func TestCSVSourceLoad(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := bigArray(t, 300, 5)
	var sb strings.Builder
	const n = 1000
	for i := 0; i < n; i++ {
		m := ""
		if i == 42 {
			m = hex.EncodeToString(arr.Bytes())
		}
		fmt.Fprintf(&sb, "%d,%g,%s\n", i, float64(i)*1.5, m)
	}
	src := NewCSVSource(strings.NewReader(sb.String()), tbl.Schema())
	st, err := tbl.BulkLoad(src, BulkOptions{})
	if err != nil {
		t.Fatalf("BulkLoad over CSV: %v", err)
	}
	if st.Rows != n {
		t.Fatalf("rows = %d, want %d", st.Rows, n)
	}
	vals, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if vals[1].F != 10.5 {
		t.Fatalf("x = %v, want 10.5", vals[1].F)
	}
	if !vals[2].IsNull() {
		t.Fatalf("m should be NULL")
	}
	got := fetchArray(t, tbl, 42, 2)
	if got.FloatAt(299) != arr.FloatAt(299) {
		t.Fatalf("blob round-trip diverged")
	}
	verifyInvariants(t, db, "t")
}

func TestCSVSourceParseError(t *testing.T) {
	for _, tc := range []struct {
		name, csv, line string
	}{
		{"bad float", "1,0.5,\n2,not-a-number,\n3,1.5,\n", "csv line 2:"},
		// A quoted field spans two lines, so the third record starts on
		// line 4: the error names the line, not the record number.
		{"multi-line record", "1,0.5,\n\"2\n\",0.5,\n3,bad,\n", "csv line 4:"},
		{"field count", "1,0.5,\n2,0.5\n", "line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
			tbl, err := db.CreateTable("t", walTestSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			_, err = tbl.BulkLoad(NewCSVSource(strings.NewReader(tc.csv), tbl.Schema()), BulkOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.line) {
				t.Fatalf("err = %v, want parse failure naming %q", err, tc.line)
			}
			if got := tbl.Rows(); got != 0 {
				t.Fatalf("rows after failed CSV load = %d, want 0", got)
			}
			verifyInvariants(t, db, "t")
		})
	}
}

// TestCSVSourceFirstBadRecordWins loads heavy rows with two bad records
// far apart: the error names the first, and the table keeps only the
// row it had before the load.
func TestCSVSourceFirstBadRecordWins(t *testing.T) {
	db := openDB(t, pages.NewMemDisk(), wal.NewMemStorage())
	tbl, err := db.CreateTable("t", walTestSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntValue(0), FloatValue(0.5), Null}); err != nil {
		t.Fatal(err)
	}
	m := hex.EncodeToString(bigArray(t, 300, 1).Bytes())
	var sb strings.Builder
	for line := 1; line <= 257; line++ {
		x := fmt.Sprint(float64(line) / 4)
		if line == 200 || line == 257 {
			x = "bad"
		}
		fmt.Fprintf(&sb, "%d,%s,%s\n", line, x, m)
	}
	_, err = tbl.BulkLoad(NewCSVSource(strings.NewReader(sb.String()), tbl.Schema()), BulkOptions{})
	if err == nil || !strings.Contains(err.Error(), "csv line 200:") {
		t.Fatalf("err = %v, want parse failure naming line 200", err)
	}
	if got := tbl.Rows(); got != 1 {
		t.Fatalf("rows after failed CSV load = %d, want 1", got)
	}
	vals, err := tbl.Get(0)
	if err != nil || vals[1].F != 0.5 {
		t.Fatalf("row 0 = %v, %v; want x = 0.5", vals, err)
	}
	verifyInvariants(t, db, "t")
}
