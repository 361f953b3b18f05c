package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	doors "repro"
)

// small shrinks a workload's population so a test campaign takes a
// fraction of a second.
func small(t *testing.T, name string, ases, shards int) (workload, doors.SurveyConfig) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.pop.ASes, w.shards = ases, shards
	cfg, err := w.surveyConfig(7)
	if err != nil {
		t.Fatal(err)
	}
	return w, cfg
}

// traced runs the staged pipeline and checks its Report against
// doors.RunSurveyOn's.
func traced(t *testing.T, w workload, cfg doors.SurveyConfig) (*tracer, *popMeter) {
	t.Helper()
	pop := w.population()
	s, err := doors.RunSurveyOn(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, pm := newTracer(), newPopMeter()
	got, err := runStaged(pop, cfg, tr, pm)
	if _, err := checkReport(got, err); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s.Report) {
		t.Fatalf("%s: staged Report differs from doors.RunSurveyOn's", w.name)
	}
	return tr, pm
}

func TestStagedReportMatches(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ases, shards  int
		wantPremerged bool
	}{
		{"survey", 40, 2, false},
		{"survey-chaos", 40, 2, false},
		// More shards than the pre-merge fan-in, so runs pre-merge.
		{"inbound-sav-fold", 60, 20, true},
	} {
		w, cfg := small(t, tc.name, tc.ases, tc.shards)
		tr, _ := traced(t, w, cfg)
		if n := len(tr.durations("campaign.shard")); n != tc.shards {
			t.Errorf("%s: %d shard spans, want %d", tc.name, n, tc.shards)
		}
		if premerged := tr.counter("scanner.spill_bytes") > 0 && len(tr.durations("runs.premerge")) == 1; premerged != tc.wantPremerged {
			t.Errorf("%s: spilled and pre-merged = %v, want %v", tc.name, premerged, tc.wantPremerged)
		}
	}
}

func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"survey-chaos", "inbound-sav-fold"} {
		w, cfg := small(t, name, 40, 4)
		a, pa := traced(t, w, cfg)
		b, pb := traced(t, w, cfg)
		if !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: counters differ across runs of one seed:\n%v\n%v", name, a.counters, b.counters)
		}
		if sa, sb := pa.total(), pb.total(); sa.Calls != sb.Calls || sa.ASes != sb.ASes {
			t.Errorf("%s: population sweeps differ across runs: %+v vs %+v", name, sa, sb)
		}
	}
}

func TestCountersShardInvariant(t *testing.T) {
	w, cfg1 := small(t, "survey", 40, 1)
	_, cfg2 := small(t, "survey", 40, 2)
	a, _ := traced(t, w, cfg1)
	b, _ := traced(t, w, cfg2)
	for name, va := range a.counters {
		// Population sweeps follow the shard layout: every shard sweeps
		// its own slice of the population.
		if strings.HasPrefix(name, "ditl.") {
			continue
		}
		if vb := b.counters[name]; va != vb {
			t.Errorf("%s: %v at 1 shard, %v at 2", name, va, vb)
		}
	}
}

func TestKernelInputsNonEmpty(t *testing.T) {
	for _, w := range workloads {
		cfg, err := w.surveyConfig(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newKernelInputs(w.population(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(in.dsts) == 0 || len(in.srcs) != len(in.dsts) || len(in.raws) != len(in.dsts) || len(in.packed) != len(in.dsts) || in.zone == nil {
			t.Errorf("%s: incomplete kernel inputs: %d targets", w.name, len(in.dsts))
		}
	}
}

func TestLayerValuesCoverPerLayer(t *testing.T) {
	w, cfg := small(t, "survey", 40, 2)
	tr, pm := traced(t, w, cfg)
	v := layerValues(tr, pm, nil, 0)
	for _, m := range perLayer {
		if _, ok := v[m.Name]; !ok {
			t.Errorf("no value for %s", m.Name)
		}
	}
	if len(v) != len(perLayer) {
		t.Errorf("%d values for %d per-layer metrics", len(v), len(perLayer))
	}
	for _, n := range []string{"netsim.run_s", "eventq.events", "scanner.probes_sent", "analysis.reduce_s", "campaign.shard_s_p50"} {
		if v[n] <= 0 {
			t.Errorf("%s = %v, want > 0", n, v[n])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program's own tables
// must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if got, want := bj.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\nBENCHMARK.json %+v\nprogram        %+v", got, want)
	}
	if got, want := bj.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs between BENCHMARK.json and the program")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}
