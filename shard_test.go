package doors

// Shard-invariance tests for the parallel survey engine: the same
// seeds must produce the same survey — targets, hits, report, tables —
// at any shard count, including the single-shard path.

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/scanner"
)

func shardConfig(shards int) SurveyConfig {
	return SurveyConfig{
		Population: ditl.Params{Seed: 7, ASes: 40},
		Scanner:    scanner.Config{Seed: 8, Rate: 10000},
		Shards:     shards,
	}
}

func TestShardedSurveyIsDeterministic(t *testing.T) {
	base, err := RunSurvey(shardConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.V4.ReachableAddrs == 0 {
		t.Fatal("baseline survey reached nothing")
	}
	for _, k := range []int{2, 8} {
		cfg := shardConfig(k)
		r := campaign.NewRunner()
		s, err := r.Run(cfg.Campaign, ditl.Generate(cfg.Population), cfg.engineConfig())
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if _, _, done := r.Progress(); done != k {
			t.Fatalf("shards=%d: runner finished %d shard simulations", k, done)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("shards=%d: probes/duration %d/%v, want %d/%v",
				k, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if !reflect.DeepEqual(s.Scanner.Targets, base.Scanner.Targets) {
			t.Fatalf("shards=%d: merged target list differs", k)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("shards=%d: merged hits differ (%d vs %d)",
				k, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("shards=%d: merged partials differ", k)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("shards=%d: stats differ: %+v vs %+v", k, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.PublicDNS, base.PublicDNS) {
			t.Fatalf("shards=%d: merged public-DNS allowlist differs", k)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("shards=%d: report differs", k)
		}
		// The rendered tables are the user-visible artifact; they must
		// be byte-identical, not merely statistically close.
		for name, render := range map[string]func(*Survey) string{
			"table1": func(s *Survey) string { return report.Table1(s.Report) },
			"table2": func(s *Survey) string { return report.Table2(s.Report) },
			"table3": func(s *Survey) string { return report.Table3(s.Report) },
		} {
			if got, want := render(s), render(base); got != want {
				t.Errorf("shards=%d: %s differs:\n got: %s\nwant: %s", k, name, got, want)
			}
		}
	}
}

// TestShardedSurveyWithChurnIsDeterministic exercises the churn path:
// churn decisions are keyed on host identity, so the offline set is
// shard-invariant too.
func TestShardedSurveyWithChurnIsDeterministic(t *testing.T) {
	cfg := shardConfig(1)
	cfg.ChurnFraction = 0.3
	base, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	s, err := RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Report, base.Report) {
		t.Fatal("churned report differs across shard counts")
	}
	if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
		t.Fatal("churned hits differ across shard counts")
	}
}

// TestShardedSurveyWithChaosIsDeterministic pins the tentpole guarantee
// of the fault-injection layer: with chaos enabled, the fault schedule
// (crashes and the whole per-reason drop vector, flap drops included),
// the merged Report, and the invariant-checker totals are all
// bit-identical at K=1, 3, and 5 shards — and the invariants hold (zero
// violations) throughout.
func TestShardedSurveyWithChaosIsDeterministic(t *testing.T) {
	chaosConfig := func(shards int) SurveyConfig {
		cfg := shardConfig(shards)
		cfg.Chaos = chaos.Default(99)
		return cfg
	}
	base, err := RunSurvey(chaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Chaos must actually bite, and the survey must survive it.
	if base.ChaosCrashes == 0 {
		t.Fatal("chaos schedule injected no resolver crashes")
	}
	if base.Drops[netsim.DropChaos] == 0 {
		t.Fatal("chaos layer dropped no packets (no flaps hit live traffic)")
	}
	if base.Report.V4.ReachableAddrs == 0 {
		t.Fatal("chaotic survey reached nothing")
	}
	if base.Invariants == nil {
		t.Fatal("invariant checker was not attached")
	}
	if !base.Invariants.Ok() {
		t.Fatalf("invariant violations under chaos: %v", base.Invariants.Violations)
	}
	if base.Invariants.DeliveriesChecked == 0 || base.Invariants.ResponsesChecked == 0 ||
		base.Invariants.CacheServes == 0 || base.Invariants.CacheFlushes == 0 {
		t.Fatalf("invariant checker saw no traffic: %+v", *base.Invariants)
	}

	for _, k := range []int{3, 5} {
		s, err := RunSurvey(chaosConfig(k))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if s.Probes != base.Probes || s.Duration != base.Duration {
			t.Fatalf("shards=%d: probes/duration %d/%v, want %d/%v",
				k, s.Probes, s.Duration, base.Probes, base.Duration)
		}
		if s.ChaosCrashes != base.ChaosCrashes {
			t.Fatalf("shards=%d: %d chaos crashes, want %d", k, s.ChaosCrashes, base.ChaosCrashes)
		}
		if !reflect.DeepEqual(s.Drops, base.Drops) {
			t.Fatalf("shards=%d: drops %v, want %v", k, s.Drops, base.Drops)
		}
		if !reflect.DeepEqual(s.Scanner.Targets, base.Scanner.Targets) {
			t.Fatalf("shards=%d: merged target list differs", k)
		}
		if !reflect.DeepEqual(s.Scanner.Hits, base.Scanner.Hits) {
			t.Fatalf("shards=%d: merged hits differ (%d vs %d)",
				k, len(s.Scanner.Hits), len(base.Scanner.Hits))
		}
		if !reflect.DeepEqual(s.Scanner.Partials, base.Scanner.Partials) {
			t.Fatalf("shards=%d: merged partials differ", k)
		}
		if s.Scanner.Stats != base.Scanner.Stats {
			t.Fatalf("shards=%d: stats differ: %+v vs %+v", k, s.Scanner.Stats, base.Scanner.Stats)
		}
		if !reflect.DeepEqual(s.Invariants, base.Invariants) {
			t.Fatalf("shards=%d: invariant report differs: %+v vs %+v",
				k, *s.Invariants, *base.Invariants)
		}
		if !reflect.DeepEqual(s.Report, base.Report) {
			t.Fatalf("shards=%d: report differs", k)
		}
	}
}

// TestShardCountResolution pins the Shards knob semantics (resolved by
// the campaign runner the survey delegates to).
func TestShardCountResolution(t *testing.T) {
	if got := (campaign.Config{}).ShardCount(); got != 1 {
		t.Fatalf("default shards = %d, want 1", got)
	}
	if got := (campaign.Config{Shards: 3}).ShardCount(); got != 3 {
		t.Fatalf("explicit shards = %d, want 3", got)
	}
	if got := (campaign.Config{Shards: -1}).ShardCount(); got < 1 {
		t.Fatalf("auto shards = %d, want >= 1", got)
	}
}
