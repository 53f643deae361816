// Command bench is the repository's benchmark: four seeded workloads
// run as a closed loop against the public API, every result verified,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. README.md says why each workload and metric is here.
//
//	bash bench/run.sh --workload turb_stencil --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -runs 5 -out bench/results/BENCH_11.json
//	bash bench/run.sh diff A.json B.json
//	bash bench/run.sh -experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "diff" {
		return runDiff(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print the result line (default: all four, each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs and op sequence")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	runs := fs.Int("runs", 1, "with no -workload: runs per workload, each with its own seed")
	out := fs.String("out", "", "with no -workload: write medians and quartiles of the runs to this file")
	outDir := fs.String("tracedir", "bench/out", "directory the span files go to")
	experiments := fs.String("experiments", "", "regenerate this EXPERIMENTS.md (paper vs measured, Table 1) and exit")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	// One process, at most nproc clients: pin GOMAXPROCS so a bigger box
	// does not change what the parallel scans do.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *printManifest:
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *experiments != "":
		if err := writeExperiments(*experiments, *seed); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		return 0
	case *workload == "":
		return runAll(*seed, *seconds, *trace, *runs, *out, stdout, stderr)
	}

	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	fmt.Fprintf(stdout, "bench: %s seed=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, runtime.NumCPU(), procs, runtime.Version())
	var res result
	if *trace == 1 {
		tr, err := runTraced(w, *seed, fullSizes, *outDir, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tr.report(stdout, w)
		res = tr.res
	} else {
		e2e, err := runEndToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)), fullSizes, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		e2e.report(stdout, w)
		res = e2e.res
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeArgs lets -trace stand alone (the usage the issue shows) as
// well as take the 0|1 value the driver passes: the flag package would
// read "-trace 0" as a boolean flag followed by a positional argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			a = "-trace=" + v
		}
		out = append(out, a)
	}
	return out
}
