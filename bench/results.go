package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is a checked-in benchmark point: for every workload and
// metric the median and quartiles over several runs, each run its own
// process (peak RSS is per process) with its own seed.
type resultsFile struct {
	Commit     string   `json:"commit"`
	Go         string   `json:"go"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seconds    float64  `json:"seconds"`
	Runs       int      `json:"runs"`
	FirstSeed  int64    `json:"first_seed"`
	Rows       []resRow `json:"rows"`
}

type resRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Alias    string    `json:"alias,omitempty"`
	Kind     string    `json:"kind"` // end_to_end | per_layer
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), which
// is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func (r resRow) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return math.Abs(r.Q3-r.Q1) / math.Abs(r.Median)
}

// child runs one workload in its own process and returns its result
// line; the child's report goes to out as it is produced.
func child(workload string, seed int64, seconds float64, trace int, out, errOut io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = errOut
	runErr := cmd.Run() // waits for the child to exit
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v, exit: %v)", workload, err, runErr)
	}
	return res, nil
}

// runAll runs every workload runs times — untraced, traced, or both
// when a results file is asked for — and reports medians.
func runAll(seed int64, seconds float64, trace, runs int, outPath string, stdout, stderr io.Writer) int {
	modes := []int{trace}
	if outPath != "" {
		modes = []int{0, 1}
	}
	values := map[[2]string][]float64{}
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, mode := range modes {
				res, err := child(w.name, seed+int64(r), seconds, mode, stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				if !res.Correct {
					failed = true
				}
				for name, m := range res.Metrics {
					k := [2]string{w.name, name}
					values[k] = append(values[k], m.Value)
				}
			}
		}
	}
	file := resultsFile{
		Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: seconds, Runs: runs, FirstSeed: seed,
	}
	for _, w := range workloads {
		for _, group := range []struct {
			kind string
			defs []metricDef
		}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
			for _, d := range group.defs {
				v := values[[2]string{w.name, d.Name}]
				if len(v) == 0 {
					continue
				}
				row := resRow{Workload: w.name, Metric: d.Name, Kind: group.kind, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Values: v}
				if a := w.alias(d.Name); a != d.Name {
					row.Alias = a
				}
				row.Q1, row.Median, row.Q3 = quartiles(v)
				file.Rows = append(file.Rows, row)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-14s %-40s %-22s %14s %10s  n\n", "workload", "metric", "alias", "median", "IQR/med")
	for _, row := range file.Rows {
		fmt.Fprintf(stdout, "%-14s %-40s %-22s %14.6g %9.2f%%  %d %s\n",
			row.Workload, row.Metric, row.Alias, row.Median, 100*row.spread(), len(row.Values), row.Unit)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "bench: verification failed")
		return 1
	}
	return 0
}

// gitCommit names the commit measured, when the checkout has one.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict compares one end-to-end row of two results files against the
// metric's bound. A move for the worse beyond the bound is "worse"; a
// spread wider than the bound on either side leaves the row
// "unresolved"; a move for the better beyond both spreads is "better".
func verdict(base, cur resRow, bound float64) string {
	if base.Median == 0 {
		return "unresolved"
	}
	change := cur.Median/base.Median - 1 // > 0: the number went up
	if cur.Better == higher {
		change = -change
	}
	spread := math.Max(base.spread(), cur.spread())
	switch {
	case change > bound:
		return "worse"
	case spread > bound:
		return "unresolved"
	case -change > spread:
		return "better"
	}
	return "same"
}

// runDiff implements `bench diff A.json B.json`: every workload ×
// metric row of A against the same row of B. It exits 1 when an
// end-to-end row is worse.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench diff BASE.json NEW.json")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	curRows := map[[2]string]resRow{}
	for _, r := range cur.Rows {
		curRows[[2]string{r.Workload, r.Metric}] = r
	}
	fmt.Fprintf(stdout, "base %s (%d runs)  new %s (%d runs)\n", base.Commit, base.Runs, cur.Commit, cur.Runs)
	fmt.Fprintf(stdout, "%-14s %-40s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	worse := 0
	for _, b := range base.Rows {
		c, ok := curRows[[2]string{b.Workload, b.Metric}]
		if !ok {
			fmt.Fprintf(stdout, "%-14s %-40s %14.6g %14s %8s  missing\n", b.Workload, b.Metric, b.Median, "null", "")
			continue
		}
		v := ""
		switch {
		case b.Kind == "end_to_end":
			v = verdict(b, c, bounds[b.Metric])
			if v == "worse" {
				worse++
			}
		case b.Median != c.Median && (b.Unit == "count" || b.Unit == "B"):
			v = "changed"
		}
		ratioText := ""
		if b.Median != 0 {
			ratioText = fmt.Sprintf("%8.3f", c.Median/b.Median)
		}
		name := b.Metric
		if b.Alias != "" {
			name += " (" + b.Alias + ")"
		}
		fmt.Fprintf(stdout, "%-14s %-40s %14.6g %14.6g %8s  %s\n", b.Workload, name, b.Median, c.Median, ratioText, v)
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d end-to-end row(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
