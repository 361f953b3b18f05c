package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"

	doors "repro"
	"repro/internal/analysis"
)

// minReps is the fewest campaigns an end-to-end run makes, however
// short --seconds is, so its medians rest on at least three samples.
const minReps = 3

// rep is one campaign in its own process, as the child reports it.
type rep struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Targets   int     `json:"targets"`
	ReportSHA string  `json:"report_sha256"`
	Err       string  `json:"err,omitempty"`
	// PeakRSSMiB is the child's ru_maxrss, read by the parent.
	PeakRSSMiB float64 `json:"-"`
}

// cpuTime is the process's user+system CPU time, every thread
// (including the garbage collector's) counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkReport applies the per-campaign output checks and returns the
// Report's digest, which the repeats of a seed must share.
func checkReport(r *analysis.Report, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if r == nil {
		return "", fmt.Errorf("no report")
	}
	if r.V4.ReachableAddrs == 0 {
		return "", fmt.Errorf("no IPv4 target reached")
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encoding the report: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runChild synthesizes the population, runs one campaign and prints
// the rep as JSON. A failed campaign is reported in the rep, not by the
// exit status.
func runChild(w workload, seed int64) {
	var r rep
	cfg, err := w.surveyConfig(seed)
	if err == nil {
		t0 := time.Now()
		pop := w.population()
		r.SetupS = time.Since(t0).Seconds()

		c0, t1 := cpuTime(), time.Now()
		var s *doors.Survey
		s, err = doors.RunSurveyOn(pop, cfg)
		r.WallS = time.Since(t1).Seconds()
		r.CPUS = (cpuTime() - c0).Seconds()
		if s != nil {
			r.Targets = s.Scanner.Stats.TargetsAdmitted
			if err == nil && (s.Invariants == nil || !s.Invariants.Ok()) {
				err = fmt.Errorf("invariant checker did not run clean")
			}
			r.ReportSHA, err = checkReport(s.Report, err)
		}
	}
	if err != nil {
		r.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "surveybench:", err)
		os.Exit(1)
	}
}

// spawn runs one rep in a child process and reads its peak RSS.
func spawn(w workload, seed int64) rep {
	exe, err := os.Executable()
	if err != nil {
		return rep{Err: err.Error()}
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{Err: fmt.Sprintf("child: %v", err)}
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return rep{Err: fmt.Sprintf("child output: %v", err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// runEndToEnd repeats the campaign in fresh processes for about
// seconds, never fewer than minReps times, and reports the medians of
// the reps that passed every check.
func runEndToEnd(w workload, seed int64, seconds int) result {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var reps []rep
	var last time.Duration
	for len(reps) < minReps || time.Since(start)+last <= budget {
		t := time.Now()
		r := spawn(w, seed)
		last = time.Since(t)
		fmt.Fprintf(os.Stderr, "surveybench: %s rep %d: setup %.4fs wall %.4fs cpu %.4fs rss %.1fMiB %s\n",
			w.name, len(reps), r.SetupS, r.WallS, r.CPUS, r.PeakRSSMiB, r.Err)
		reps = append(reps, r)
	}

	// The Report must not depend on the run: every rep of this seed has
	// to produce the digest most of them produced.
	votes := make(map[string]int)
	for _, r := range reps {
		if r.Err == "" {
			votes[r.ReportSHA]++
		}
	}
	want := ""
	for sha, n := range votes {
		if n > votes[want] || (n == votes[want] && sha < want) {
			want = sha
		}
	}
	var setup, wall, cpu, tput, rss []float64
	res := result{Attempted: len(reps)}
	for i, r := range reps {
		switch {
		case r.Err != "":
			res.fail("rep %d: %s", i, r.Err)
			continue
		case r.ReportSHA != want:
			res.fail("rep %d: report %.12s differs from the other reps' %.12s", i, r.ReportSHA, want)
			continue
		}
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		tput = append(tput, float64(r.Targets)/r.WallS)
		rss = append(rss, r.PeakRSSMiB)
	}
	out := newResult(endToEnd, map[string]float64{
		"setup_s":       median(setup),
		"wall_s":        median(wall),
		"targets_per_s": median(tput),
		"cpu_s":         median(cpu),
		"peak_rss_mb":   median(rss),
	})
	out.Attempted, out.Failed, out.problems = res.Attempted, res.Failed, res.problems
	return out
}

// traceFile is everything a traced run records. Deterministic counts
// and wall-clock measurements are kept in separate sections.
type traceFile struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Deterministic traceCounts            `json:"deterministic"`
	WallClock     traceTimes             `json:"wall_clock"`
	Metrics       map[string]traceMetric `json:"metrics"`
}

type traceCounts struct {
	Counters map[string]float64 `json:"counters"`
	// Sweeps counts population sweeps by caller.
	Sweeps map[string]sweepCount `json:"sweeps"`
}

type sweepCount struct {
	Calls int64 `json:"calls"`
	ASes  int64 `json:"ases"`
}

type traceTimes struct {
	UntracedWallS float64 `json:"untraced_wall_s"`
	TracedWallS   float64 `json:"traced_wall_s"`
	Spans         []span  `json:"spans"`
	// SelfS is, per span name, span time minus the time its child spans
	// cover.
	SelfS map[string]float64 `json:"self_s"`
	// SweepSelfS is each caller's population-sweep time outside its
	// callback.
	SweepSelfS map[string]float64      `json:"sweep_self_s"`
	Times      map[string]float64      `json:"times"`
	Kernels    map[string]kernelResult `json:"kernels"`
}

type traceMetric struct {
	Value float64 `json:"value"`
	metricDef
}

// runTraced makes one untraced campaign through doors.RunSurveyOn and
// one traced stage-by-stage campaign over the same population, checks
// that their Reports are identical, times the layer kernels, and writes
// the trace to path.
func runTraced(w workload, seed int64, path string) result {
	res := result{Attempted: 2}
	cfg, err := w.surveyConfig(seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	pop := w.population()

	t := time.Now()
	s, err := doors.RunSurveyOn(pop, cfg)
	untraced := time.Since(t)
	var want *analysis.Report
	if s != nil {
		want = s.Report
	}
	if _, err := checkReport(want, err); err != nil {
		res.fail("untraced campaign: %v", err)
	}
	s = nil
	runtime.GC()

	tr, pm := newTracer(), newPopMeter()
	t = time.Now()
	got, err := runStaged(pop, cfg, tr, pm)
	traced := time.Since(t)
	if _, err := checkReport(got, err); err != nil {
		res.fail("traced campaign: %v", err)
	} else if !reflect.DeepEqual(got, want) {
		res.fail("traced campaign: Report differs from doors.RunSurveyOn's")
	}

	var kernels map[string]kernelResult
	in, err := newKernelInputs(pop, cfg)
	if err == nil {
		kernels, err = runKernels(in)
	}
	if err != nil {
		res.fail("kernels: %v", err)
	}

	values := layerValues(tr, pm, kernels, traced.Seconds()/untraced.Seconds()-1)
	out := newResult(perLayer, values)
	out.Attempted, out.Failed, out.problems = res.Attempted, res.Failed, res.problems
	tf := traceFile{
		Workload: w.name, Seed: seed,
		Deterministic: traceCounts{Counters: tr.counters, Sweeps: make(map[string]sweepCount)},
		WallClock: traceTimes{
			UntracedWallS: untraced.Seconds(), TracedWallS: traced.Seconds(),
			Spans: tr.spans, SelfS: tr.selfTimes(), SweepSelfS: make(map[string]float64),
			Times: tr.times, Kernels: kernels,
		},
		Metrics: make(map[string]traceMetric, len(perLayer)),
	}
	for label, sw := range pm.sweeps {
		tf.Deterministic.Sweeps[label] = sweepCount{Calls: sw.Calls, ASes: sw.ASes}
		tf.WallClock.SweepSelfS[label] = sw.SelfS
	}
	for _, m := range perLayer {
		tf.Metrics[m.Name] = traceMetric{Value: values[m.Name], metricDef: m}
	}
	if err := writeJSON(path, tf); err != nil {
		out.fail("writing the trace: %v", err)
	}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
