package campaign

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/detrand"
	"repro/internal/ditl"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/world"
)

// callLog collects the runner's phase calls; shards planned in the
// pool call in from several workers at once.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *callLog) String() string { return fmt.Sprint(l.calls) }

// fakePhase records the runner's calls into a shared log and
// contributes a counting reducer under a (possibly shared) name.
type fakePhase struct {
	name    string
	reducer string
	log     *callLog
	runs    *int
}

func (p fakePhase) Name() string { return p.name }

func (p fakePhase) Plan(sh *Shard) int {
	p.log.add("%s.plan[%d]", p.name, sh.Index)
	return 0
}

func (p fakePhase) Schedule(sh *Shard, _ time.Duration) {
	p.log.add("%s.sched[%d]", p.name, sh.Index)
}

func (p fakePhase) Observe(sh *Shard) {
	p.log.add("%s.obs[%d]", p.name, sh.Index)
}

func (p fakePhase) Reducers() []analysis.Reducer {
	return []analysis.Reducer{{Name: p.reducer, Reduce: func(*analysis.Context, *analysis.Report) { *p.runs++ }}}
}

func tinyConfig() Config {
	return Config{Scanner: scanner.Config{Seed: 2, Rate: 10000}}
}

// TestRunnerPhaseOrdering pins the phase contract: every phase plans on
// every shard before any phase schedules (the window derives from the
// campaign-wide probe total), and scheduling precedes hook arming, both
// in phase-list order.
func TestRunnerPhaseOrdering(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	log := &callLog{}
	runs := 0
	c := &Campaign{Name: "fake", Phases: []Phase{
		fakePhase{name: "a", reducer: "ra", log: log, runs: &runs},
		fakePhase{name: "b", reducer: "rb", log: log, runs: &runs},
	}}
	if _, err := Run(c, pop, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	want := []string{"a.plan[0]", "b.plan[0]", "a.sched[0]", "b.sched[0]", "a.obs[0]", "b.obs[0]"}
	if log.String() != fmt.Sprint(want) {
		t.Fatalf("call order = %v, want %v", log, want)
	}
	if runs != 2 {
		t.Fatalf("distinct reducers ran %d times, want 2", runs)
	}
}

// TestRunnerPlansAllShardsFirst checks the cross-shard ordering in both
// plan modes: with K=2 both shards plan before either schedules, so no
// shard's timing can depend on its own probe count alone.
func TestRunnerPlansAllShardsFirst(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	run := func(maxParallel int) []string {
		t.Helper()
		log := &callLog{}
		runs := 0
		c := &Campaign{Name: "fake", Phases: []Phase{
			fakePhase{name: "a", reducer: "ra", log: log, runs: &runs},
		}}
		cfg := tinyConfig()
		cfg.Shards, cfg.MaxParallel = 2, maxParallel
		if _, err := Run(c, pop, cfg); err != nil {
			t.Fatal(err)
		}
		return log.calls
	}

	// Count pass (2 shards, 1 slot): the world-free planners plan both
	// shards first, then the one worker re-plans and simulates each
	// shard in index order.
	want := []string{"a.plan[0]", "a.plan[1]", "a.plan[0]", "a.sched[0]", "a.obs[0]", "a.plan[1]", "a.sched[1]", "a.obs[1]"}
	if got := run(1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("count pass: call order = %v, want %v", got, want)
	}

	// In-pool planning (2 shards, 2 slots): each shard plans once, both
	// before either schedules; the workers then interleave freely, but
	// each schedules before it arms its hooks.
	got := run(2)
	if len(got) != 6 {
		t.Fatalf("in-pool: calls = %v, want 6", got)
	}
	first := got[:2]
	sort.Strings(first)
	if fmt.Sprint(first) != fmt.Sprint([]string{"a.plan[0]", "a.plan[1]"}) {
		t.Fatalf("in-pool: calls = %v, want both plans first", got)
	}
	for _, k := range []int{0, 1} {
		sched := slices.Index(got, fmt.Sprintf("a.sched[%d]", k))
		obs := slices.Index(got, fmt.Sprintf("a.obs[%d]", k))
		if sched < 2 || obs < sched {
			t.Fatalf("in-pool: calls = %v, want shard %d to schedule then observe", got, k)
		}
	}
}

// TestReduceMergeDeduplicates pins the reduce-merge rule: phases
// sharing a reducer name run it exactly once — reducers accumulate
// into Report counters, so a duplicate run would double-count.
func TestReduceMergeDeduplicates(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	log := &callLog{}
	runs := 0
	c := &Campaign{Name: "fake", Phases: []Phase{
		fakePhase{name: "a", reducer: "shared", log: log, runs: &runs},
		fakePhase{name: "b", reducer: "shared", log: log, runs: &runs},
	}}
	if _, err := Run(c, pop, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("shared reducer ran %d times, want exactly 1", runs)
	}
}

func TestByName(t *testing.T) {
	for name, phases := range map[string][]string{
		"":            {PhaseReachability, PhaseCharacterization},
		"survey":      {PhaseReachability, PhaseCharacterization},
		"inbound-sav": {PhaseInboundSAV},
	} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if len(c.Phases) != len(phases) {
			t.Fatalf("ByName(%q): %d phases, want %d", name, len(c.Phases), len(phases))
		}
		for i, ph := range c.Phases {
			if ph.Name() != phases[i] {
				t.Fatalf("ByName(%q) phase %d = %q, want %q", name, i, ph.Name(), phases[i])
			}
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestNewFromPhases(t *testing.T) {
	c, err := NewFromPhases([]string{PhaseInboundSAV, PhaseCharacterization})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Phases) != 2 || c.Phases[0].Name() != PhaseInboundSAV {
		t.Fatalf("phases = %v", c.Phases)
	}
	if _, err := NewFromPhases(nil); err == nil {
		t.Fatal("empty phase list succeeded")
	}
	if _, err := NewFromPhases([]string{"nope"}); err == nil {
		t.Fatal("unknown phase succeeded")
	}
}

// TestSAVSourceIsInternal checks the inbound-SAV source pick: always an
// address of the target's own AS, never the target itself, and stable
// across calls (causal identity, no shared stream).
func TestSAVSourceIsInternal(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 8})
	reg, err := world.BuildRegistry(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range CandidateAddrs(pop, nil) {
		as := reg.OriginOf(a)
		if as == nil {
			continue
		}
		tgt := scanner.Target{Addr: a, ASN: as.ASN}
		src, ok := savSourceFor(reg, tgt, 2)
		if !ok {
			continue
		}
		if src == a {
			t.Fatalf("source for %v is the target itself", a)
		}
		if !as.Originates(src) {
			t.Fatalf("source %v for target %v is outside AS %v", src, a, as.ASN)
		}
		if again, _ := savSourceFor(reg, tgt, 2); again != src {
			t.Fatalf("source pick for %v not stable: %v then %v", a, src, again)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no candidates checked")
	}
}

// slicePickSAVSource is savSourceFor as it stood when it collected the
// candidate subnets into a slice: the reference the allocation-free
// pick must match.
func slicePickSAVSource(reg *routing.Registry, t scanner.Target, seed uint64) (netip.Addr, bool) {
	as := reg.AS(t.ASN)
	if as == nil {
		return netip.Addr{}, false
	}
	var prefixes []netip.Prefix
	if t.Addr.Is6() {
		prefixes = as.V6Prefixes()
	} else {
		prefixes = as.V4Prefixes()
	}
	own := routing.SubnetOf(t.Addr)
	var candidates []netip.Prefix
	for _, p := range prefixes {
		for _, sub := range routing.EnumerateSubnets(p, savSubnetFanout) {
			if sub != own {
				candidates = append(candidates, sub)
			}
		}
	}
	hi, lo := detrand.AddrWords(t.Addr)
	if len(candidates) > 0 {
		sub := candidates[detrand.Intn(len(candidates), seed, hi, lo, saltSAVSubnet)]
		return routing.RandomHostAddr(sub, detrand.Rand(seed, hi, lo, saltSAVSource)), true
	}
	rng := detrand.Rand(seed, hi, lo, saltSAVSource)
	for tries := 0; tries < 16; tries++ {
		if a := routing.RandomHostAddr(own, rng); a != t.Addr {
			return a, true
		}
	}
	return netip.Addr{}, false
}

// TestSAVSourceMatchesSlicePick checks the counted subnet pick against
// the slice-building one for every candidate target of a generated
// population, v4 and v6, plus a hand-built AS with single-subnet
// prefixes and a target whose own subnet is its AS's only one.
func TestSAVSourceMatchesSlicePick(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 5, ASes: 40})
	reg, err := world.BuildRegistry(pop, world.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var targets []scanner.Target
	for _, a := range CandidateAddrs(pop, nil) {
		if as := reg.OriginOf(a); as != nil {
			targets = append(targets, scanner.Target{Addr: a, ASN: as.ASN})
		}
	}
	small := routing.NewRegistry()
	small.Add(&routing.AS{ASN: 64500, Prefixes: []netip.Prefix{
		netip.MustParsePrefix("192.0.2.128/25"),
		netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("2001:db8:1::/64"),
	}})
	small.Add(&routing.AS{ASN: 64501, Prefixes: []netip.Prefix{netip.MustParsePrefix("198.18.0.0/24")}})
	for _, a := range []string{"192.0.2.200", "198.51.100.7", "203.0.113.255", "2001:db8:1::53"} {
		targets = append(targets, scanner.Target{Addr: netip.MustParseAddr(a), ASN: 64500})
	}
	targets = append(targets, scanner.Target{Addr: netip.MustParseAddr("198.18.0.9"), ASN: 64501})

	var v4, v6, ownExcluded, single int
	for _, tgt := range targets {
		r := reg
		if tgt.ASN >= 64500 {
			r = small
		}
		as := r.AS(tgt.ASN)
		prefixes := as.V4Prefixes()
		if tgt.Addr.Is6() {
			prefixes = as.V6Prefixes()
			v6++
		} else {
			v4++
		}
		own := routing.SubnetOf(tgt.Addr)
		for _, p := range prefixes {
			subs := routing.EnumerateSubnets(p, savSubnetFanout)
			if len(subs) == 1 {
				single++
			}
			if slices.Contains(subs, own) {
				ownExcluded++
			}
		}
		for _, seed := range []uint64{1, 2} {
			want, wok := slicePickSAVSource(r, tgt, seed)
			got, ok := savSourceFor(r, tgt, seed)
			if got != want || ok != wok {
				t.Fatalf("seed %d target %v: pick %v,%v, want %v,%v", seed, tgt.Addr, got, ok, want, wok)
			}
		}
	}
	if v4 == 0 || v6 == 0 || ownExcluded == 0 || single == 0 {
		t.Fatalf("coverage: %d v4, %d v6, %d own-subnet exclusions, %d single-subnet prefixes", v4, v6, ownExcluded, single)
	}
}

// TestInboundSAVPlanState sanity-checks Plan: one probe per admitted
// target (every admitted target is routed, so a source always exists).
func TestInboundSAVPlanState(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 3, ASes: 4})
	res, err := Run(NewInboundSAV(), pop, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("planned no probes")
	}
	if got := int(res.Scanner.Stats.TargetsAdmitted); res.Probes != got {
		t.Fatalf("planned %d probes for %d targets", res.Probes, got)
	}
	if res.Scanner.Stats.ProbesSent == 0 {
		t.Fatal("sent no probes")
	}
}

// brokenPop hands the shard world builds (never the population-wide
// sweeps, which pass nil indices) ASes the registry does not know, for
// the population indices in [lo, hi).
type brokenPop struct {
	ditl.Pop
	lo, hi int
}

func (p brokenPop) EachAS(indices []int, fn func(i int, as *ditl.ASSpec)) {
	p.Pop.EachAS(indices, func(i int, as *ditl.ASSpec) {
		if indices != nil && i >= p.lo && i < p.hi {
			unknown := *as
			unknown.ASN = 4_000_000_000
			as = &unknown
		}
		fn(i, as)
	})
}

// TestShardErrorNamesShard checks that a failing shard's error says
// which shard failed: shard 1 of 3 cannot build its world, and Run's
// error names the shard, its population AS range and the population
// seed, in both plan modes.
func TestShardErrorNamesShard(t *testing.T) {
	pop := brokenPop{Pop: ditl.Generate(ditl.Params{Seed: 5, ASes: 9}), lo: 3, hi: 6}
	for _, maxParallel := range []int{1, 3} {
		cfg := tinyConfig()
		cfg.Shards, cfg.MaxParallel = 3, maxParallel
		_, err := Run(nil, pop, cfg)
		const want = "campaign: shard 1 (ASes [3,6), seed 5): "
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("maxparallel=%d: err = %v, want prefix %q", maxParallel, err, want)
		}
	}
}
