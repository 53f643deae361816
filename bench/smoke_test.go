package main

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesSpec keeps the checked-in BENCHMARK.json equal to
// what spec.go generates, and inside the limits the driver enforces.
func TestManifestMatchesSpec(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	m := buildManifest()
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s [s, lower]")
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestSmoke runs all four workloads at toy sizes: an end-to-end run
// must emit every end-to-end metric exactly once with nothing failed,
// two traced runs from one seed must emit every per-layer metric and
// agree on every count, and another seed must change the op sequence.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runEndToEnd(w, 1, 100*time.Millisecond, toySizes, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.res.Correct || e2e.res.Failed != 0 || e2e.res.Attempted < 1 {
				t.Fatalf("end-to-end run: %+v", e2e.res)
			}
			if len(e2e.res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(e2e.res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := e2e.res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			dir := t.TempDir()
			var runs [2]*tracedRun
			for i := range runs {
				if runs[i], err = runTraced(w, 1, toySizes, dir, io.Discard); err != nil {
					t.Fatal(err)
				}
				if !runs[i].res.Correct {
					t.Fatalf("traced run: %+v attempted, %d failed", runs[i].res.Attempted, runs[i].res.Failed)
				}
				if len(runs[i].res.Metrics) != len(perLayer) {
					t.Errorf("%d per-layer metrics, want %d", len(runs[i].res.Metrics), len(perLayer))
				}
			}
			for _, d := range perLayer {
				a, ok := runs[0].values[d.Name]
				if !ok {
					t.Errorf("%s not measured", d.Name)
				}
				if d.Unit == "count" || d.Unit == "B" {
					if b := runs[1].values[d.Name]; a != b {
						t.Errorf("%s: %v then %v from the same seed", d.Name, a, b)
					}
				}
			}
			if _, err := os.Stat(runs[0].path); err != nil {
				t.Errorf("span file: %v", err)
			}
			if len(runs[0].tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}

			// table1_scan takes no seed: its generator has none and its
			// op order is fixed (see setupTable1).
			if w.name != "table1_scan" && reflect.DeepEqual(opSequence(t, w, 1), opSequence(t, w, 2)) {
				t.Error("seeds 1 and 2 give the same op sequence")
			}
			if !reflect.DeepEqual(opSequence(t, w, 1), opSequence(t, w, 1)) {
				t.Error("seed 1 gives two different op sequences")
			}
		})
	}
}

// opSequence fingerprints the first ops of a seeded run: the op kinds,
// and for turbulence, whose kinds follow a fixed pattern, the first
// batch of points.
func opSequence(t *testing.T, w *workloadDef, seed int64) []any {
	t.Helper()
	sz := toySizes
	sz.singleClient = true
	inst, err := w.setup(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	var seq []any
	for i := 0; i < 12; i++ {
		kind, _, err := inst.step(nil)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, kind)
	}
	if tb, ok := inst.(*turb); ok {
		seq = append(seq, tb.points(0))
	}
	if nb, ok := inst.(*nbodyWL); ok {
		seq = append(seq, nb.cur.r)
	}
	return seq
}

// TestNbodyModelIsExercised guards the durability check against going
// vacuous: one toy cycle must leave every kind of acknowledged write in
// the model that crashRecover reads back.
func TestNbodyModelIsExercised(t *testing.T) {
	sz := toySizes
	sz.singleClient = true
	sz.nbDML = 200
	inst, err := setupNbody(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	cy := inst.(*nbodyWL).cy
	if len(cy.vx) == 0 || len(cy.gone) == 0 || len(cy.patches) == 0 || len(cy.goneBuckets) == 0 || len(cy.miniBuckets) == 0 {
		t.Fatalf("model after one cycle: %d rows, %d deleted, %d patched buckets, %d deleted buckets, %d inserted buckets",
			len(cy.vx), len(cy.gone), len(cy.patches), len(cy.goneBuckets), len(cy.miniBuckets))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	row := func(better string, q1, med, q3 float64) resRow {
		return resRow{Better: better, Q1: q1, Median: med, Q3: q3}
	}
	for _, c := range []struct {
		base, cur resRow
		want      string
	}{
		{row(lower, 99, 100, 101), row(lower, 119, 120, 121), "worse"},
		{row(lower, 99, 100, 101), row(lower, 79, 80, 81), "better"},
		{row(lower, 99, 100, 101), row(lower, 100, 101, 102), "same"},
		{row(lower, 90, 100, 110), row(lower, 100, 101, 102), "unresolved"},
		{row(higher, 99, 100, 101), row(higher, 79, 80, 81), "worse"},
	} {
		if got := verdict(c.base, c.cur, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.base.Median, c.cur.Median, got, c.want)
		}
	}
}
