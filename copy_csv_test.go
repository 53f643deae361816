package sqlarray

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// csvTable creates table name(id BIGINT, x FLOAT, m VARBINARY(MAX)).
func csvTable(t testing.TB, db *Database, name string) {
	t.Helper()
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
		engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(name, s); err != nil {
		t.Fatal(err)
	}
}

// TestCopyCSVRoundTrip loads a hex-encoded max array and an empty (NULL)
// field through CopyCSV and reads them back in SQL.
func TestCopyCSVRoundTrip(t *testing.T) {
	db := memDatabase(t)
	csvTable(t, db, "obs")
	vals := make([]float64, 2000) // several blob chunks
	for i := range vals {
		vals[i] = float64(i) / 8
	}
	arr, err := core.FromFloat64s(core.Max, core.Float64, vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	in := fmt.Sprintf("1,0.5,%s\n2,,\n3,2.5,\n", hex.EncodeToString(arr.Bytes()))
	st, err := db.CopyCSV("obs", strings.NewReader(in), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 3 {
		t.Fatalf("loaded %d rows, want 3", st.Rows)
	}
	if n, err := db.QueryScalarFloat("SELECT COUNT(*) FROM obs"); err != nil || n != 3 {
		t.Fatalf("COUNT(*) = %v, %v; want 3", n, err)
	}
	for _, k := range []int{0, 1, 1999} {
		got, err := db.QueryScalarFloat(fmt.Sprintf("SELECT FloatArrayMax.Item_1(m, %d) FROM obs WHERE id = 1", k))
		if err != nil || got != vals[k] {
			t.Errorf("Item_1(m, %d) = %v, %v; want %v", k, got, err, vals[k])
		}
	}
	res, err := db.Query("SELECT x, m FROM obs WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Rows[0]; !row[0].IsNull() || !row[1].IsNull() {
		t.Errorf("empty fields loaded as %v, want NULL", row)
	}
}

// TestCopyCSVAllocsPerRow guards the CSV source's one reused row: a
// numeric load allocates about once per record (the csv reader's field
// string), not once per value.
func TestCopyCSVAllocsPerRow(t *testing.T) {
	const rows = 20000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%g,\n", i, float64(i)*1.5)
	}
	in := sb.String()
	db := memDatabase(t)
	i := 0
	allocs := testing.AllocsPerRun(3, func() {
		name := fmt.Sprint("t", i)
		i++
		csvTable(t, db, name)
		if _, err := db.CopyCSV(name, strings.NewReader(in), BulkOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / rows
	t.Logf("%.2f allocations per row", perRow)
	if perRow >= 1.5 {
		t.Fatalf("CopyCSV made %.2f allocations per row, want < 1.5", perRow)
	}
}
