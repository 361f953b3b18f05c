// Package doors reproduces the measurement system of "Behind Closed
// Doors: A Network Tale of Spoofing, Intrusion, and False DNS Security"
// (Deccio et al., IMC 2020) against a deterministic simulated Internet.
//
// The paper surveys destination-side source address validation (DSAV)
// by sending DNS queries with spoofed, target-internal source addresses
// to millions of resolvers and watching for induced
// recursive-to-authoritative queries at experimenter-controlled
// authoritative servers. This package wires the full pipeline together:
//
//	population := ditl.Generate(...)      // synthetic DITL target world
//	w, _ := world.Build(population, ...)  // simulated Internet
//	survey, _ := doors.RunSurvey(cfg)     // probe + monitor + analyze
//	fmt.Println(survey.Report.V4.ASFraction()) // ≈0.49 in the paper
//
// The engine itself lives in internal/campaign: a survey is one
// campaign (an ordered phase list) run by a deterministic phase runner
// that owns sharding, the chaos window, invariant merging, and the
// canonical result merge. RunSurvey composes the default phase list;
// SurveyConfig.Campaign swaps in another (e.g. the inbound-SAV-only
// scan) over the same engine.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package doors

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
	"repro/internal/world"
)

// SurveyConfig parameterizes a full DSAV survey.
type SurveyConfig struct {
	// Population generates the synthetic DITL target world.
	Population ditl.Params
	// Campaign selects the phase list to run; nil runs the default
	// survey campaign (reachability + characterization).
	Campaign *campaign.Campaign
	// World tunes the simulated Internet (loss, wildcard zone, DSAV
	// counterfactuals).
	World world.Options
	// Scanner tunes the measurement client.
	Scanner scanner.Config
	// LifetimeThreshold filters human-induced queries (default 10s,
	// §3.6.3).
	LifetimeThreshold time.Duration
	// ChurnFraction takes this share of resolvers offline at random
	// points during the experiment (§3.6.2's address churn).
	ChurnFraction float64
	// Shards splits the population across this many independent
	// simulation shards run on parallel goroutines. 0 (or 1) runs the
	// classic single-shard survey; -1 picks runtime.GOMAXPROCS(0).
	// Every source of randomness in the pipeline is keyed on causal
	// identity rather than drawn from shared streams, so the merged
	// survey — targets, hits, report — is identical at any shard count.
	Shards int
	// Stream chooses the population representation: RunSurvey
	// synthesizes a streaming ditl.View, whose shards re-synthesize
	// their ASes on demand, instead of materializing the population
	// with ditl.Generate. It changes no result, only memory: pair it
	// with Fold (and a MaxParallel below Shards) for per-shard peak
	// memory at any population size. RunSurveyOn ignores it.
	Stream bool
	// MaxParallel bounds how many shard worlds are live at once in every
	// run (the peak-memory knob); 0 picks GOMAXPROCS. When every shard
	// fits (Shards ≤ MaxParallel), each shard is planned once, in its
	// own world; otherwise a world-free count pass plans first.
	MaxParallel int
	// Fold selects the external-merge reduce: each shard's sorted hit
	// run spills to a temporary run file as the shard finishes, and the
	// final reduce streams the hierarchical k-way merge of those files
	// through the reducers instead of materializing merged buffers. The
	// Report is bit-identical; Survey.Scanner's Targets, Hits and
	// Partials are nil (Stats still carries the counts).
	Fold bool
	// Chaos, when Enabled, subjects the survey to a deterministic fault
	// schedule (link flap, duplication, reordering, corruption, resolver
	// crashes, clock skew) keyed on causal identity, so chaotic runs are
	// as reproducible — and as shard-invariant — as clean ones. The
	// experiment's own infrastructure (roots, scanner, public DNS) is
	// exempt; chaos stresses the measured paths.
	Chaos chaos.Config
	// DisableInvariants turns off the always-on invariant checker
	// (border-policy re-assertion, DNS transaction-ID conservation,
	// cache TTL/crash safety on every delivery and cache event). When
	// the checker is on and any invariant is violated, RunSurveyOn
	// returns the completed Survey together with a non-nil error.
	DisableInvariants bool
}

// engineConfig lowers the survey knobs onto the campaign runner.
func (c SurveyConfig) engineConfig() campaign.Config {
	return campaign.Config{
		World:             c.World,
		Scanner:           c.Scanner,
		LifetimeThreshold: c.LifetimeThreshold,
		ChurnFraction:     c.ChurnFraction,
		Shards:            c.Shards,
		MaxParallel:       c.MaxParallel,
		Fold:              c.Fold,
		Chaos:             c.Chaos,
		DisableInvariants: c.DisableInvariants,
	}
}

// Survey is a completed run: the campaign runner's Result.
type Survey = campaign.Result

// RunSurvey generates a population, builds the world, runs the probing
// experiment to completion, and analyzes the authoritative logs. With
// cfg.Stream it never materializes the population: shards synthesize
// their ASes on demand from a ditl.View over the same seed, producing
// the identical survey.
func RunSurvey(cfg SurveyConfig) (*Survey, error) {
	if cfg.Stream {
		return RunSurveyOn(ditl.NewView(cfg.Population), cfg)
	}
	return RunSurveyOn(ditl.Generate(cfg.Population), cfg)
}

// RunSurveyOn runs a survey over an existing population (so ablations
// can share one population across world variants). It is a thin
// composition over the campaign engine: cfg.Campaign (default: the
// reachability + characterization survey) runs under
// internal/campaign.Run, which owns sharding, probe-window derivation,
// chaos, invariant merging, and the canonical deterministic merge.
func RunSurveyOn(pop ditl.Pop, cfg SurveyConfig) (*Survey, error) {
	return campaign.Run(cfg.Campaign, pop, cfg.engineConfig())
}
