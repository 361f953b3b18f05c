// Command surveybench is the repository's benchmark: it times DSAV
// survey campaigns end to end through doors.RunSurveyOn and, in a
// separate traced run, drives the same pipeline stage by stage through
// the layers' exported functions to attribute the time to layers.
//
// Usage, from the repository root:
//
//	bash surveybench/run.sh --workload survey --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics: it repeats the campaign,
// each time in a fresh child process that synthesizes the population
// and runs exactly one campaign, for --seconds seconds (at least three
// times), and reports medians. --trace 1 makes one untraced and one
// traced campaign, checks that their Reports are identical, times the
// layer kernels, prints the per-layer metrics and writes the whole
// trace as JSON (--trace-out). --workload all runs every workload.
//
// Every run checks its outputs: the campaign returns no error, no
// simulation invariant is violated, some IPv4 target is reached, the
// Report is identical across the repeats of a seed, and the traced
// Report equals the untraced one. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// command exits 1 when a check failed and 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	var (
		name     = flag.String("workload", "survey", "workload name, or all")
		seed     = flag.Int64("seed", defaultSeed, "seed for everything the campaign randomizes")
		seconds  = flag.Int("seconds", 30, "how long one end-to-end run measures")
		trace    = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		traceOut = flag.String("trace-out", "", "trace file path (default .bench_build/surveybench/trace-<workload>-seed<seed>.json)")
		child    = flag.Bool("child", false, "internal: run one campaign and report it as JSON")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		usage("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		usage("--seconds must be at least 1")
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			usage(err.Error())
		}
		ws = []workload{w}
	}
	if *child {
		runChild(ws[0], *seed)
		return
	}

	ok := true
	for _, w := range ws {
		var res result
		if *trace == 1 {
			path := *traceOut
			if path == "" || len(ws) > 1 {
				path = filepath.Join(".bench_build", "surveybench", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
			}
			res = runTraced(w, *seed, path)
		} else {
			res = runEndToEnd(w, *seed, *seconds)
		}
		res.print(w.name)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "surveybench:", msg)
	flag.Usage()
	os.Exit(2)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// problems lists why runs failed; printed to standard error.
	problems []string
}

func newResult(defs []metricDef, values map[string]float64) result {
	r := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes every metric by name with its unit, the error rate, and
// the result line.
func (r *result) print(workload string) {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "surveybench: %s: %s\n", workload, p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-18s %-32s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-18s %-32s %16.6g ratio (%d of %d runs failed)\n", workload, "error_rate", rate, r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
