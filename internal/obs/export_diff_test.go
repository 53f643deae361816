package obs_test

import (
	"bufio"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/wal"
)

// statsNames are the registry series sqlsh `.stats` prints. The
// Prometheus endpoint must serve the same values for all of them —
// this test diffs the two representations after real engine work.
var statsNames = []string{
	"pages.logical_reads", "pages.physical_reads", "pages.bytes_read",
	"pages.admissions", "pages.promotions", "pages.scan_evictions",
	"pages.cow_copies", "pages.snapshot_reads", "pages.versions_retired",
	"blob.chunk_reads", "blob.directory_reads", "blob.bytes_read",
	"blob.chunks_written",
	"blob.stored_bytes_written", "blob.stored_bytes_read",
	"blob.bytes_written",
	"wal.records", "wal.bytes_logged", "wal.syncs",
	"engine.rows_inserted", "engine.commits",
	"udf.calls", "udf.bytes_marshaled",
}

// scrapeProm parses the text exposition format into name -> value for
// plain counter/gauge samples (histogram series are skipped).
func scrapeProm(t *testing.T, r io.Reader) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[name] = uint64(f)
	}
	return out
}

func TestPrometheusMatchesStatsCounters(t *testing.T) {
	l, err := wal.Open(wal.NewMemStorage(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if err := tbl.Insert([]engine.Value{engine.IntValue(i), engine.FloatValue(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sqlmini.Run(db, "SELECT COUNT(*) FROM t WHERE v > 10"); err != nil {
		t.Fatal(err)
	}
	db.Funcs().Register("dbo.Twice", 1, func(args []engine.Value) (engine.Value, error) {
		return engine.FloatValue(2 * args[0].F), nil
	})
	if _, err := sqlmini.Run(db, "SELECT SUM(dbo.Twice(v)) FROM t"); err != nil {
		t.Fatal(err)
	}

	// What .stats reads...
	snap := db.Metrics().Snapshot()
	// ...and what the HTTP endpoint serves.
	srv := httptest.NewServer(obs.Handler(db.Metrics()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	prom := scrapeProm(t, resp.Body)

	for _, name := range statsNames {
		pn := obs.PromName(name) + "_total"
		got, ok := prom[pn]
		if !ok {
			t.Errorf("endpoint is missing %s (for %s)", pn, name)
			continue
		}
		if want := snap.Get(name); got != want {
			t.Errorf("%s: endpoint serves %d, .stats snapshot has %d", name, got, want)
		}
	}
	// Sanity: the workload actually moved the interesting counters, so
	// the equality above is not vacuous.
	for _, name := range []string{"pages.logical_reads", "engine.rows_inserted", "engine.commits", "udf.calls"} {
		if snap.Get(name) == 0 {
			t.Errorf("%s = 0 after 500 inserts and a scan; workload not measured", name)
		}
	}
}
