package campaign

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
	"repro/internal/world"
)

// Config parameterizes a campaign run: the engine knobs every campaign
// shares, independent of its phase list.
type Config struct {
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
	// classic single-shard campaign; -1 picks runtime.GOMAXPROCS(0).
	// Every source of randomness in the pipeline is keyed on causal
	// identity rather than drawn from shared streams, so the merged
	// Result — targets, hits, report — is identical at any shard count.
	Shards int
	// MaxParallel bounds how many shard worlds are live at once — it is
	// the peak-memory knob: RSS scales with MaxParallel × shard size.
	// 0 picks runtime.GOMAXPROCS(0). It bounds every run, and it picks
	// the plan mode (see Run): when every shard fits in the pool, each
	// shard is planned once, in its own world.
	MaxParallel int
	// Fold selects the external-merge reduce: each shard's sorted hit
	// run spills to a temporary run file the moment the shard finishes,
	// and the final reduce streams the hierarchical k-way merge of those
	// files through the reducers instead of materializing merged
	// buffers. Over a streaming population (ditl.View) nothing after a
	// shard's simulation then holds O(total targets) state. The Report
	// is bit-identical either way; the trade-off is that
	// Result.Scanner's Targets, Hits and Partials are nil (Stats still
	// carries the counts, and reducers saw exactly the canonical
	// sequences).
	Fold bool
	// Chaos, when Enabled, subjects the campaign to a deterministic
	// fault schedule keyed on causal identity. Infrastructure ASes (as
	// recorded on the registry) are exempt; chaos stresses the measured
	// paths, not the experiment's control plane.
	Chaos chaos.Config
	// DisableInvariants turns off the always-on invariant checker. When
	// the checker is on and any invariant is violated, Run returns the
	// completed Result together with a non-nil error.
	DisableInvariants bool
}

// ShardCount resolves the configured shard count.
func (c Config) ShardCount() int {
	switch {
	case c.Shards < 0:
		return runtime.GOMAXPROCS(0)
	case c.Shards == 0:
		return 1
	default:
		return c.Shards
	}
}

func (c Config) maxParallel() int {
	if c.MaxParallel > 0 {
		return c.MaxParallel
	}
	return runtime.GOMAXPROCS(0)
}

// Result is a completed campaign run.
type Result struct {
	// Campaign is the phase list that ran.
	Campaign   *Campaign
	Population ditl.Pop
	// Scanner holds the merged results: Targets, Hits, Partials and
	// Stats aggregated across shards in canonical order, plus the
	// scanner addresses, registry and config every shard shared. It has
	// no host behind it: the shard worlds are discarded as each shard's
	// observations are partitioned.
	Scanner *scanner.Scanner
	Report  *analysis.Report
	Geo     *geo.DB
	// PublicDNS lists the shared public resolvers plus every per-AS
	// replica (the §3.6.1 public-DNS service addresses).
	PublicDNS []netip.Addr

	// Probes is the number of probe queries scheduled across all
	// phases; Duration is the virtual campaign window they were spread
	// over.
	Probes   int
	Duration time.Duration

	// ResolverStats sums every simulated resolver's counters across all
	// shards — the server-side complement to Scanner.Stats. Drops sums
	// the simulators' per-reason drop counters the same way. Both are
	// sums, so they are identical at any shard count.
	ResolverStats resolver.Stats
	Drops         netsim.Drops

	// Invariants is the merged invariant-checker report (nil when the
	// checker was disabled).
	Invariants *world.InvariantReport
	// ChaosCrashes is the number of resolver crashes the chaos schedule
	// injected across all shards (0 without chaos). Each crash drops
	// the crashed resolver's in-flight queries and its soft state (the
	// cache flushes, a forwarder chain's loop guard clears).
	ChaosCrashes int
}

// Runner executes campaigns. One Runner is safe for concurrent Run
// calls — the racestress harness and parameter sweeps drive several
// campaigns at once through a shared Runner: the registry memo and the
// progress counters below are the only cross-campaign state, every
// access to them holds mu, and everything a shard goroutine touches is
// either read-only (registry, geo database, campaign, population view)
// or handed to it as an argument.
type Runner struct {
	mu sync.Mutex
	// regCache memoizes BuildRegistry by population identity and world
	// options: concurrent campaigns over the same population build the
	// routing registry once and share it read-only.
	//doors:guardedby mu
	regCache map[regKey]*routing.Registry
	// active counts campaigns currently inside Run.
	//doors:guardedby mu
	active int
	// completed counts campaigns that have finished, success or error.
	//doors:guardedby mu
	completed int
	// shardsDone counts shard simulations completed across all runs.
	//doors:guardedby mu
	shardsDone int
}

// regKey identifies one memoized registry. Pop implementations are
// pointers and Options is a flat value struct, so the key is
// comparable.
type regKey struct {
	pop  ditl.Pop
	opts world.Options
}

// NewRunner returns a Runner ready for concurrent use.
func NewRunner() *Runner {
	return &Runner{regCache: make(map[regKey]*routing.Registry)}
}

// Progress reports the Runner's lifetime counters: campaigns currently
// running, campaigns completed, and shard simulations finished.
func (r *Runner) Progress() (active, completed, shardsDone int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active, r.completed, r.shardsDone
}

// shardDone records one finished shard simulation. Called from shard
// goroutines.
func (r *Runner) shardDone() {
	r.mu.Lock()
	r.shardsDone++
	r.mu.Unlock()
}

// registryFor returns the memoized registry for (pop, opts), building
// it on first use. The build runs outside the lock — registries take
// real work to construct and BuildRegistry is deterministic, so two
// racing builders produce equivalent registries and the first to
// publish wins.
func (r *Runner) registryFor(pop ditl.Pop, opts world.Options) (*routing.Registry, error) {
	key := regKey{pop: pop, opts: opts}
	r.mu.Lock()
	cached := r.regCache[key]
	r.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	reg, err := world.BuildRegistry(pop, opts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if prior := r.regCache[key]; prior != nil {
		reg = prior // a concurrent builder published first
	} else {
		r.regCache[key] = reg
	}
	r.mu.Unlock()
	return reg, nil
}

// Run executes the campaign over the population through one shard
// pipeline — plan pass, worker pool, reduce — and returns the merged
// Result. c == nil runs the default survey campaign.
//
// The population's ASes are partitioned into Shards contiguous shards,
// each simulated in its own world (own event queue, own scanner
// instance) over one shared read-only routing registry, at most
// MaxParallel at once. Probe timing derives from the campaign-wide
// probe total, fixed before any shard schedules, and the shard outputs
// merge in canonical order afterwards, so the same seeds produce the
// same Report at any shard count and any MaxParallel, including 1.
//
// The plan pass has two modes, chosen by whether every shard fits in
// the pool at once (ShardCount() ≤ MaxParallel):
//
//   - In-pool planning: each worker builds its shard's world, admits
//     and plans, and reports its probe count; once every shard has
//     planned, the runner hands the workers the campaign window and
//     each simulates the shard it planned. Each shard is planned once.
//   - Count pass: the runner first admits and plans every shard on a
//     host-less planner (no world), one shard at a time, to sum the
//     probe count; each worker then builds, re-admits and re-plans its
//     shard. Peak residency stays MaxParallel worlds.
//
// Each worker schedules, simulates, seals and partitions its shard and
// keeps only a shardOut; the world is garbage before the worker takes
// its next shard. Config.Fold selects where the reduce reads the sealed
// hit runs from: memory, or the run files each shard spills.
func (r *Runner) Run(c *Campaign, pop ditl.Pop, cfg Config) (*Result, error) {
	r.mu.Lock()
	r.active++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.active--
		r.completed++
		r.mu.Unlock()
	}()
	if c == nil {
		c = NewSurvey()
	}
	// Every shard's Plan needs the complete IPv6 hit list, and shards
	// may plan concurrently, so the list is derived in one view sweep up
	// front.
	if cfg.Scanner.V6HitList == nil {
		cfg.Scanner.V6HitList = V6HitList(pop)
	}
	cfg.World.Invariants = !cfg.DisableInvariants
	reg, err := r.registryFor(pop, cfg.World)
	if err != nil {
		return nil, err
	}
	p := &pipeline{
		c: c, pop: pop, cfg: cfg, scfg: cfg.Scanner.WithDefaults(),
		reg: reg, gdb: GeoDB(pop),
		parts: ditl.PartitionIndices(pop.NumASes(), cfg.ShardCount()),
	}
	if cfg.Fold {
		dir, err := os.MkdirTemp("", "doors-fold-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		p.spillDir = dir
	}
	outs, win := r.simulate(p)
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}
	return p.reduce(outs, win)
}

// Run executes one campaign on a fresh Runner. It is the one-shot
// entry point; callers running several campaigns (especially
// concurrently, or over the same population) should share a Runner.
func Run(c *Campaign, pop ditl.Pop, cfg Config) (*Result, error) {
	return NewRunner().Run(c, pop, cfg)
}

// pipeline is one campaign run's context, read-only once the workers
// start: every shard worker receives it as an argument.
type pipeline struct {
	c    *Campaign
	pop  ditl.Pop
	cfg  Config
	scfg scanner.Config // cfg.Scanner with its defaults filled in
	reg  *routing.Registry
	gdb  *geo.DB
	// parts lists each shard's population AS indices (contiguous).
	parts [][]int
	// spillDir receives each shard's sealed hit run under Fold; empty
	// keeps the runs in memory.
	spillDir string
}

// window is the campaign-wide schedule every shard simulates under. The
// duration depends only on the campaign-wide probe total and rate, so
// per-probe timestamps are identical no matter how the targets were
// partitioned; the one read-only chaos injector is keyed to the same
// duration, so the fault schedule is shard-invariant too.
type window struct {
	probes   int
	duration time.Duration
	inj      *chaos.Injector
}

func (p *pipeline) window(probes int) window {
	win := window{probes: probes, duration: scanner.CampaignDuration(probes, p.scfg.Rate)}
	if p.cfg.Chaos.Enabled {
		win.inj = chaos.NewInjector(p.cfg.Chaos)
		win.inj.SetWindow(win.duration)
		win.inj.SetEligibleRegistry(p.reg)
	}
	return win
}

// shardOut is everything the pipeline keeps from a finished shard: the
// scanner's result buffers, the partitioned observations, and the
// handful of world-level scalars the reduce needs. Notably absent: the
// world itself — resolvers, caches, zones, and the event queue all
// become garbage the moment the shard's worker moves on.
type shardOut struct {
	targets      []scanner.Target
	hits         []scanner.Hit
	partials     []scanner.PartialHit
	stats        scanner.Stats
	addr4, addr6 netip.Addr
	ctx          *analysis.Context
	rstats       resolver.Stats
	drops        netsim.Drops
	publicDNS    []netip.Addr
	asPublicDNS  []netip.Addr
	inv          world.InvariantReport
	crashes      int
	// runPath is the shard's spilled sorted hit run (Fold only;
	// targets/hits/partials above stay nil in that mode).
	runPath string
	err     error
}

// simulate runs every shard on min(Shards, MaxParallel) workers, which
// take shards in index order, and returns the shards' outputs with the
// window they ran under. The runner queues one copy of the window per
// shard on start: in the count-pass mode right away, in the in-pool mode
// once every worker has reported its shard's probe count on counts.
// In-pool mode runs one worker per shard, so every shard plans before
// any worker waits on start.
func (r *Runner) simulate(p *pipeline) ([]*shardOut, window) {
	shards := len(p.parts)
	workers := min(shards, p.cfg.maxParallel())
	jobs := make(chan int, shards)
	for k := 0; k < shards; k++ {
		jobs <- k
	}
	close(jobs)
	start := make(chan window, shards)
	var counts chan int
	var win window
	if shards > workers {
		win = p.window(p.countProbes())
	} else {
		counts = make(chan int, shards)
	}

	// The pipeline and the window are read-only across workers; a
	// worker writes only the output slots of the shards it takes, and
	// the Runner's progress counter takes its own lock.
	outs := make([]*shardOut, shards)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(p *pipeline, r *Runner, jobs <-chan int, counts chan<- int, start <-chan window) {
			defer wg.Done()
			for k := range jobs {
				outs[k] = p.shard(k, counts, start)
				r.shardDone()
			}
		}(p, r, jobs, counts, start)
	}
	if counts != nil {
		probes := 0
		for k := 0; k < shards; k++ {
			probes += <-counts
		}
		win = p.window(probes)
	}
	for k := 0; k < shards; k++ {
		start <- win
	}
	wg.Wait()
	return outs, win
}

// countProbes is the count pass: every shard admitted and planned on a
// host-less planner — Plan needs only the targets, the registry and
// the config, no world — for the campaign-wide probe total. Each
// planner lives only for its shard's iteration; retaining all of them
// would be O(total targets).
func (p *pipeline) countProbes() int {
	probes := 0
	for k := range p.parts {
		probes += p.admitAndPlan(&Shard{Index: k, Scanner: scanner.NewPlanner(p.reg, p.cfg.Scanner)})
	}
	return probes
}

// shard runs shard k end to end on its worker: build and plan, report
// the probe count when the runner is collecting them (a failed build
// still reports, so the runner never waits on it), take the window,
// simulate.
func (p *pipeline) shard(k int, counts chan<- int, start <-chan window) *shardOut {
	sh, n, err := p.plan(k)
	if counts != nil {
		counts <- n
	}
	var out *shardOut
	if err == nil {
		out, err = p.runShard(sh, <-start)
	}
	if err != nil {
		return &shardOut{err: p.shardErr(k, err)}
	}
	return out
}

// shardErr names the failed shard: its index, its population AS range
// and the population seed, enough to rebuild it alone.
func (p *pipeline) shardErr(k int, err error) error {
	lo := 0
	for _, part := range p.parts[:k] {
		lo += len(part)
	}
	return fmt.Errorf("campaign: shard %d (ASes [%d,%d), seed %d): %w",
		k, lo, lo+len(p.parts[k]), p.pop.PopParams().Seed, err)
}

// plan builds shard k's world and scanner, then admits and plans.
func (p *pipeline) plan(k int) (*Shard, int, error) {
	w, err := world.BuildWith(p.pop, p.reg, p.cfg.World, p.parts[k])
	if err != nil {
		return nil, 0, err
	}
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth, p.cfg.Scanner)
	if err != nil {
		return nil, 0, err
	}
	sh := &Shard{Index: k, World: w, Scanner: sc}
	return sh, p.admitAndPlan(sh), nil
}

// admitAndPlan streams the shard's candidates straight off the
// population view into the scanner's admission predicate — no
// intermediate slice — then lets every phase plan, and returns the
// shard's probe count.
func (p *pipeline) admitAndPlan(sh *Shard) int {
	indices := p.parts[sh.Index]
	sh.Scanner.AdmitHint(p.pop.CandidateCount(indices))
	eachCandidate(p.pop, indices, sh.Scanner.AdmitOne)
	probes := 0
	for _, ph := range p.c.Phases {
		probes += ph.Plan(sh)
	}
	return probes
}

// runShard schedules, simulates, seals and partitions one planned
// shard and, under Fold, spills the sealed hit run and drops the
// buffers. Phases schedule in list order, then churn and chaos, then
// reactive hooks arm — the same event-queue insertion order at every
// shard count.
func (p *pipeline) runShard(sh *Shard, win window) (*shardOut, error) {
	w, sc := sh.World, sh.Scanner
	for _, ph := range p.c.Phases {
		ph.Schedule(sh, win.duration)
	}
	out := &shardOut{}
	if p.cfg.ChurnFraction > 0 {
		w.ScheduleChurn(p.cfg.ChurnFraction, win.duration, p.cfg.Scanner.Seed+99)
	}
	if win.inj != nil {
		out.crashes = w.ScheduleChaos(win.inj)
	}
	for _, ph := range p.c.Phases {
		ph.Observe(sh)
	}
	w.Net.Run()
	sc.SealRuns()
	out.ctx = analysis.Partition(p.input(sc))
	out.stats, out.rstats, out.drops = sc.Stats, w.ResolverStats(), w.Net.Drops()
	out.addr4, out.addr6 = w.ScannerAddr4, w.ScannerAddr6
	out.publicDNS, out.asPublicDNS = w.PublicDNS, w.ASPublicDNS
	if w.Invariants != nil {
		out.inv = w.Invariants.Report()
	}
	if p.spillDir == "" {
		out.targets, out.hits, out.partials = sc.Targets, sc.Hits, sc.Partials
		return out, nil
	}
	// Partition has folded everything it needs; the sorted hit run
	// spills and the shard's buffers die with this frame. Partials need
	// no spill (folded into the per-shard qmin sets) and the target
	// list re-derives from the view at reduce time.
	out.runPath = filepath.Join(p.spillDir, fmt.Sprintf("shard-%05d.run", sh.Index))
	if err := scanner.WriteHitRun(out.runPath, sc.Hits); err != nil {
		return nil, err
	}
	return out, nil
}

// input assembles the analysis input over sc's buffers. Partition's
// folds are order-independent (set inserts and boolean ors keyed by
// target address), so partitioning a shard's unsorted buffers yields
// the same partial maps the canonical merged order would; the
// order-sensitive reducers never see shard-local order because
// MergeContexts re-binds the merged, canonically sorted Input before
// Reduce runs.
func (p *pipeline) input(sc *scanner.Scanner) analysis.Input {
	return analysis.Input{
		Hits:              sc.Hits,
		Partials:          sc.Partials,
		Targets:           sc.Targets,
		ScannerAddrs:      []netip.Addr{sc.Addr4, sc.Addr6},
		Reg:               p.reg,
		Geo:               p.gdb,
		LifetimeThreshold: p.cfg.LifetimeThreshold,
		FollowUpCount:     p.cfg.Scanner.FollowUpCount,
	}
}

// reduce merges the shard outputs in shard order into the Result.
// Scalars sum. The public-DNS list is the shared public resolvers
// (identical in every shard) plus each shard's per-AS replicas;
// shards hold disjoint AS subsets in population order, so the
// concatenation reproduces the single-shard list exactly. The
// per-shard partial reductions union under the merged Input (their
// key spaces are disjoint: targets are per-AS and ASes are per-shard),
// which MergeContexts re-binds so order-sensitive reducers read the
// canonical sequences.
func (p *pipeline) reduce(outs []*shardOut, win window) (*Result, error) {
	res := &Result{
		Campaign: p.c, Population: p.pop, Geo: p.gdb,
		Probes: win.probes, Duration: win.duration,
	}
	// The merged result scanner carries no host and no world, only the
	// addresses, registry, config and stats every shard shared.
	sc := &scanner.Scanner{Addr4: outs[0].addr4, Addr6: outs[0].addr6, Reg: p.reg, Cfg: p.scfg}
	var inv world.InvariantReport
	ctxs := make([]*analysis.Context, len(outs))
	n := len(outs[0].publicDNS)
	for k, o := range outs {
		sc.Stats.Add(o.stats)
		res.ResolverStats.Add(o.rstats)
		res.Drops.Add(o.drops)
		inv.Add(o.inv)
		res.ChaosCrashes += o.crashes
		ctxs[k] = o.ctx
		n += len(o.asPublicDNS)
	}
	res.PublicDNS = append(make([]netip.Addr, 0, n), outs[0].publicDNS...)
	for _, o := range outs {
		res.PublicDNS = append(res.PublicDNS, o.asPublicDNS...)
	}

	var streams *analysis.Streams
	if p.spillDir == "" {
		mergeBuffers(sc, outs)
	} else {
		// Hierarchical external merge: pre-merge the spilled shard runs
		// in contiguous groups of mergeFanIn until one level fits, then
		// stream the final k-way merge through the reducers. Contiguous
		// grouping + run-index stability make any grouping
		// byte-identical to the flat merge (see internal/runs).
		paths := make([]string, len(outs))
		for k, o := range outs {
			paths[k] = o.runPath
		}
		paths, err := reduceRuns(p.spillDir, paths)
		if err != nil {
			return nil, fmt.Errorf("campaign: fold pre-merge: %w", err)
		}
		streams = &analysis.Streams{
			Hits:    foldHitStream(paths),
			Targets: foldTargetStream(p.pop, p.reg, p.cfg.Scanner),
		}
	}
	in := p.input(sc)
	in.Stream = streams
	res.Scanner, res.Report = sc, &analysis.Report{}
	mctx := analysis.MergeContexts(in, ctxs)
	mctx.Reduce(res.Report, p.c.reducers())
	if err := mctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reduce: %w", err)
	}
	if !p.cfg.DisableInvariants {
		res.Invariants = &inv
		if !inv.Ok() {
			return res, fmt.Errorf("campaign: %d simulation invariant violation(s); first: %s",
				inv.ViolationCount, inv.Violations[0])
		}
	}
	return res, nil
}

// mergeBuffers materializes the merged observation buffers on sc.
// Targets concatenate in shard order (= population order, since shards
// are contiguous); hits and partials — each shard's already a
// canonically sorted run after SealRuns — k-way merge stably by run
// index into exactly-sized buffers. A stable merge of per-shard stable
// sorts in shard order equals the stable sort of the concatenation, so
// the merged sequences are bit-identical however the campaign was
// split.
func mergeBuffers(sc *scanner.Scanner, outs []*shardOut) {
	nT, nH, nP := 0, 0, 0
	hitRuns := make([][]scanner.Hit, len(outs))
	partRuns := make([][]scanner.PartialHit, len(outs))
	for k, o := range outs {
		nT += len(o.targets)
		nH += len(o.hits)
		nP += len(o.partials)
		hitRuns[k], partRuns[k] = o.hits, o.partials
	}
	sc.Targets = make([]scanner.Target, 0, nT)
	for _, o := range outs {
		sc.Targets = append(sc.Targets, o.targets...)
	}
	sc.Hits = runs.MergeSlices(make([]scanner.Hit, 0, nH), scanner.LessHit, hitRuns...)
	sc.Partials = runs.MergeSlices(make([]scanner.PartialHit, 0, nP), scanner.LessPartial, partRuns...)
}

// mergeFanIn bounds how many run files the fold reduce holds open at
// once. Package variable so the grouping-invariance test can shrink it;
// any value ≥ 2 produces byte-identical output.
var mergeFanIn = 16

// reduceRuns pre-merges the spilled shard runs in contiguous groups of
// mergeFanIn, level by level, deleting each level's inputs, until at
// most mergeFanIn files remain for the final streaming merge.
func reduceRuns(dir string, paths []string) ([]string, error) {
	for gen := 0; len(paths) > mergeFanIn; gen++ {
		next := make([]string, 0, (len(paths)+mergeFanIn-1)/mergeFanIn)
		for i := 0; i < len(paths); i += mergeFanIn {
			group := paths[i:min(i+mergeFanIn, len(paths))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("merge-%d-%05d.run", gen, i/mergeFanIn))
			if err := mergeRunFiles(out, group); err != nil {
				return nil, err
			}
			for _, p := range group {
				os.Remove(p)
			}
			next = append(next, out)
		}
		paths = next
	}
	return paths, nil
}

// mergeRunFiles streams the stable k-way merge of the input run files
// into a new run file.
func mergeRunFiles(outPath string, inPaths []string) error {
	w, err := scanner.CreateHitRun(outPath)
	if err != nil {
		return err
	}
	if err := eachMergedHit(inPaths, w.Write); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// foldHitStream returns the re-drainable merged hit stream over the
// final level of run files: each drain streams their merge through
// yield afresh.
func foldHitStream(paths []string) func(yield func(h *scanner.Hit)) error {
	return func(yield func(h *scanner.Hit)) error {
		return eachMergedHit(paths, func(h *scanner.Hit) error {
			yield(h)
			return nil
		})
	}
}

// eachMergedHit opens the run files, streams their stable k-way merge
// through fn one decoded hit at a time (valid only during the call),
// and closes them. Peak residency: one decoded hit per input plus the
// buffered readers.
func eachMergedHit(paths []string, fn func(h *scanner.Hit) error) error {
	srcs := make([]runs.Source[scanner.Hit], len(paths))
	for i, p := range paths {
		rd, err := scanner.OpenHitRun(p)
		if err != nil {
			return err
		}
		defer rd.Close()
		srcs[i] = rd
	}
	m := runs.NewMerger(scanner.LessHit, srcs...)
	var h scanner.Hit
	for {
		var ok bool
		if h, ok = m.Next(); !ok {
			return m.Err()
		}
		if err := fn(&h); err != nil {
			return err
		}
	}
}

// foldTargetStream returns the re-drainable merged target stream: the
// population's candidates in view order (= shard concatenation order,
// since shards are contiguous) through the exact admission predicate,
// via a host-less planner's AdmitCheck — same verdicts the shards'
// admission sweeps recorded, no O(targets) slice.
func foldTargetStream(pop ditl.Pop, reg *routing.Registry, cfg scanner.Config) func(yield func(t scanner.Target)) error {
	return func(yield func(t scanner.Target)) error {
		pl := scanner.NewPlanner(reg, cfg)
		eachCandidate(pop, nil, func(a netip.Addr) {
			if t, ok := pl.AdmitCheck(a); ok {
				yield(t)
			}
		})
		return nil
	}
}

// eachCandidate visits the DITL-derived candidate targets (live
// resolvers and dead addresses alike; the scanner cannot tell them
// apart, §3.6.2) of the population ASes named by indices (nil = all),
// in view order: each resolver's v4 then v6 address, then the AS's
// dead targets. Every candidate sweep — admission, the fold target
// stream, the IPv6 hit list — goes through it, so they agree on the
// order.
func eachCandidate(pop ditl.Pop, indices []int, fn func(netip.Addr)) {
	pop.EachAS(indices, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				fn(r.Addr4)
			}
			if r.HasV6() {
				fn(r.Addr6)
			}
		}
		for _, d := range as.DeadTargets {
			fn(d)
		}
	})
}

// CandidateAddrs collects the DITL-derived candidate targets of the
// population ASes named by indices (nil = all), pre-sized from the
// population counts.
func CandidateAddrs(pop ditl.Pop, indices []int) []netip.Addr {
	out := make([]netip.Addr, 0, pop.CandidateCount(indices))
	eachCandidate(pop, indices, func(a netip.Addr) { out = append(out, a) })
	return out
}

// V6HitList derives the IPv6 hit list (§3.2, [21]) from the population:
// the /64s of every known-active v6 address (live resolvers and
// once-seen dead targets alike — activity, not liveness). It is one of
// the few deliberately population-sized structures in the pipeline:
// one /64 per known v6 address, shared read-only by every shard's
// scanner.
func V6HitList(pop ditl.Pop) map[netip.Prefix]bool {
	hl := make(map[netip.Prefix]bool, pop.V6AddrCount())
	eachCandidate(pop, nil, func(a netip.Addr) {
		if a.Is6() {
			hl[routing.SubnetOf(a)] = true
		}
	})
	return hl
}

// GeoDB builds the country database from the population's AS
// assignments (standing in for MaxMind GeoLite2, §4).
func GeoDB(pop ditl.Pop) *geo.DB {
	db := geo.New()
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		db.Assign(as.ASN, as.Countries...)
	})
	return db
}
