package doors

// Race-stress cross-validation (make racestress): the lockguard and
// golifetime analyzers make a static claim — the engine's concurrency
// discipline is sound — and these tests make the dynamic half of the
// argument under `go test -race`. TestRaceStressConcurrentCampaigns
// drives two campaigns through one shared campaign.Runner at high
// MaxParallel, in both plan modes, so the runner's registry memo,
// progress counters, plan barrier and shard-output slots are all
// exercised from many goroutines at once; any locking hole the
// analyzers missed is the race detector's to find, and any determinism
// hole shows up as a result mismatch.
// TestRaceStressLintAgreement closes the loop from the other side: the
// concurrency-bearing packages must come back clean from exactly those
// two analyzers, so a race-detector pass here is never read as
// "annotations unnecessary" and a clean lint report is never read as
// "stress test redundant".

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/scanner"
)

func TestRaceStressConcurrentCampaigns(t *testing.T) {
	// Shards 8 on 4 slots takes the count pass; Shards 4 on 4 slots
	// plans in the pool, where each worker waits between planning and
	// simulating for the campaign window the runner sums from the
	// others' probe counts.
	for _, tc := range []struct{ shards, maxPar int }{{8, 4}, {4, 4}} {
		t.Run(fmt.Sprintf("shards=%d,maxparallel=%d", tc.shards, tc.maxPar), func(t *testing.T) {
			raceStressCampaigns(t, SurveyConfig{
				Population:  ditl.Params{Seed: 7, ASes: 40},
				Scanner:     scanner.Config{Seed: 8, Rate: 10000},
				Shards:      tc.shards,
				MaxParallel: tc.maxPar,
			})
		})
	}
}

// raceStressCampaigns races two campaigns over one population view
// through a shared Runner and checks both against a sequential
// baseline.
func raceStressCampaigns(t *testing.T, cfg SurveyConfig) {
	pop := ditl.NewView(cfg.Population)

	// Sequential baseline on its own Runner.
	base, err := campaign.NewRunner().Run(cfg.Campaign, pop, cfg.engineConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Two campaigns over the same population view race through one
	// shared Runner: both hit the same registry memo entry, both bump
	// the shared progress counters, and each runs its shard simulations
	// on up to MaxParallel worker goroutines.
	r := campaign.NewRunner()
	const runs = 2
	results := make([]*Survey, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int, r *campaign.Runner, pop ditl.Pop, cfg SurveyConfig) {
			defer wg.Done()
			results[i], errs[i] = r.Run(cfg.Campaign, pop, cfg.engineConfig())
		}(i, r, pop, cfg)
	}
	wg.Wait()

	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		s := results[i]
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Errorf("concurrent run %d: hits diverge from sequential baseline (%d vs %d)",
				i, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Errorf("concurrent run %d: report diverges from sequential baseline", i)
		}
		if s.ResolverStats != base.ResolverStats {
			t.Errorf("concurrent run %d: resolver stats diverge: %+v vs %+v",
				i, s.ResolverStats, base.ResolverStats)
		}
		if s.Drops != base.Drops {
			t.Errorf("concurrent run %d: drops diverge: %v vs %v", i, s.Drops, base.Drops)
		}
	}
	if base.ResolverStats.ClientQueries == 0 {
		t.Error("baseline resolver stats are empty: no shard reported its resolvers")
	}
	active, completed, shardsDone := r.Progress()
	if active != 0 || completed != runs || shardsDone != runs*cfg.Shards {
		t.Errorf("runner progress = (%d active, %d completed, %d shards), want (0, %d, %d)",
			active, completed, shardsDone, runs, runs*cfg.Shards)
	}
}

func TestRaceStressLintAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-package analysis in -short mode")
	}
	diags, err := loader.Run(".", []string{
		"./internal/campaign/...",
		"./internal/resolver/...",
		"./internal/world/...",
		"./internal/netsim/...",
		"./internal/lint/...",
	}, []*analysis.Analyzer{lint.LockGuard, lint.GoLifetime})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Fatalf("%d lockguard/golifetime findings: static and dynamic verdicts disagree", len(diags))
	}
}
