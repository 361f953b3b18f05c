package doors

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
)

// TestStreamingMatchesRetained pins the streaming population's core
// guarantee: a survey run under SurveyConfig.Stream — population
// synthesized on demand by a ditl.View — produces a bit-identical
// Result to the single-shard run over the materialized population, at
// several shard counts and parallelism bounds. The bounds are explicit
// so both plan modes run on any host: {1,1} and {2,2} plan in the pool,
// {2,1} and {8,3} take the count pass.
func TestStreamingMatchesRetained(t *testing.T) {
	cfg := SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
	}
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ shards, maxPar int }{
		{1, 1}, {2, 1}, {2, 2}, {8, 3},
	} {
		scfg := cfg
		scfg.Stream = true
		scfg.Shards = tc.shards
		scfg.MaxParallel = tc.maxPar
		s, err := RunSurvey(scfg)
		if err != nil {
			t.Fatalf("stream shards=%d: %v", tc.shards, err)
		}
		if !reflect.DeepEqual(s.Scanner.Targets, base.Scanner.Targets) {
			t.Fatalf("stream shards=%d: targets differ", tc.shards)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("stream shards=%d: hits differ (%d vs %d)",
				tc.shards, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("stream shards=%d: partials differ", tc.shards)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("stream shards=%d: stats differ: %+v vs %+v",
				tc.shards, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Drops, base.Drops) {
			t.Fatalf("stream shards=%d: drops %v, want %v", tc.shards, s.Drops, base.Drops)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("stream shards=%d: reports differ", tc.shards)
		}
		if !reflect.DeepEqual(s.PublicDNS, base.PublicDNS) {
			t.Fatalf("stream shards=%d: public DNS lists differ", tc.shards)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("stream shards=%d: probes/duration differ: %d/%v vs %d/%v",
				tc.shards, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if s.Invariants == nil || !s.Invariants.Ok() {
			t.Fatalf("stream shards=%d: invariant report missing or failing", tc.shards)
		}
	}
}

// TestFoldMatchesRetained pins the fold sink's guarantee: a survey run
// under Config.Fold over a streaming population — shard hit runs
// spilled to disk, the reduce streaming their hierarchical merge
// through the reducers, the target stream re-derived from the view —
// produces the identical Report, stats and scalars as the in-memory
// single-shard run, at several shard counts and both plan modes
// ({1,1} and {2,2} plan in the pool, {8,3} takes the count pass), with
// the merged buffers never materialized.
func TestFoldMatchesRetained(t *testing.T) {
	cfg := SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
	}
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ shards, maxPar int }{
		{1, 1}, {2, 2}, {8, 3},
	} {
		fcfg := cfg
		fcfg.Stream, fcfg.Fold = true, true
		fcfg.Shards = tc.shards
		fcfg.MaxParallel = tc.maxPar
		s, err := RunSurvey(fcfg)
		if err != nil {
			t.Fatalf("fold shards=%d: %v", tc.shards, err)
		}
		if s.Scanner.Targets != nil || s.Scanner.Hits != nil || s.Scanner.Partials != nil {
			t.Fatalf("fold shards=%d materialized merged buffers", tc.shards)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("fold shards=%d: stats differ: %+v vs %+v",
				tc.shards, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Drops, base.Drops) {
			t.Fatalf("fold shards=%d: drops %v, want %v", tc.shards, s.Drops, base.Drops)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("fold shards=%d: reports differ", tc.shards)
		}
		if !reflect.DeepEqual(s.PublicDNS, base.PublicDNS) {
			t.Fatalf("fold shards=%d: public DNS lists differ", tc.shards)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("fold shards=%d: probes/duration differ: %d/%v vs %d/%v",
				tc.shards, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if s.Invariants == nil || !s.Invariants.Ok() {
			t.Fatalf("fold shards=%d: invariant report missing or failing", tc.shards)
		}
	}
}

// TestStreamingChaosAndChurn pins the stressed paths across the
// population representation, the plan mode and the sink: chaos faults
// and churn must produce the same merged observations over a
// materialized population planned in the pool, a streaming one behind
// the count pass, and the fold sink (the fault schedule is keyed on
// causal identity and the campaign window, both invariant).
func TestStreamingChaosAndChurn(t *testing.T) {
	cfg := SurveyConfig{
		Population:    ditl.Params{Seed: 7, ASes: 40},
		Scanner:       scanner.Config{Seed: 8, Rate: 10000},
		ChurnFraction: 0.1,
		Shards:        3,
		MaxParallel:   3,
	}
	cfg.Chaos = chaos.Default(99)
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.ChaosCrashes == 0 {
		t.Fatal("chaos did not bite in the baseline")
	}
	scfg := cfg
	scfg.Stream, scfg.MaxParallel = true, 1
	s, err := RunSurvey(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
		t.Fatalf("chaos stream: hits differ (%d vs %d)", len(s.Scanner.Hits), len(base.Scanner.Hits))
	}
	if s.ChaosCrashes != base.ChaosCrashes {
		t.Fatalf("chaos stream: crashes %d vs %d", s.ChaosCrashes, base.ChaosCrashes)
	}
	if !reflect.DeepEqual(s.Report, base.Report) {
		t.Fatal("chaos stream: reports differ")
	}

	fcfg := scfg
	fcfg.Fold, fcfg.MaxParallel = true, 2
	f, err := RunSurvey(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.ChaosCrashes != base.ChaosCrashes {
		t.Fatalf("chaos fold: crashes %d vs %d", f.ChaosCrashes, base.ChaosCrashes)
	}
	if f.Scanner.Stats != base.Scanner.Stats {
		t.Fatalf("chaos fold: stats differ: %+v vs %+v", f.Scanner.Stats, base.Scanner.Stats)
	}
	if !reflect.DeepEqual(f.Report, base.Report) {
		t.Fatal("chaos fold: reports differ")
	}
}
