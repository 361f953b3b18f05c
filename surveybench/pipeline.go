package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	doors "repro"
	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
	"repro/internal/world"
)

// mergeFanIn is the fold reduce's pre-merge group size; it matches the
// campaign runner's, so the traced run merges in the same groups.
const mergeFanIn = 16

// staged drives one campaign stage by stage through the layers'
// exported functions, in the order campaign.Runner.Run calls them, and
// records a span around each layer call plus the layers' counters at
// the same boundaries. Its Report is DeepEqual to doors.RunSurveyOn's
// for the same population and configuration; the benchmark checks
// that on every traced run.
type staged struct {
	c    *campaign.Campaign
	pop  ditl.Pop
	cfg  doors.SurveyConfig
	scfg scanner.Config
	wopt world.Options
	tr   *tracer
	pm   *popMeter
	root int
}

// runStaged runs cfg's campaign over pop under tr. Only the two engines
// the workloads use are covered: the in-memory engine and Fold.
func runStaged(pop ditl.Pop, cfg doors.SurveyConfig, tr *tracer, pm *popMeter) (*analysis.Report, error) {
	if cfg.Stream && !cfg.Fold {
		return nil, fmt.Errorf("staged: the stream-without-fold engine is not covered")
	}
	st := &staged{c: cfg.Campaign, pop: pop, cfg: cfg, scfg: cfg.Scanner, wopt: cfg.World, tr: tr, pm: pm}
	if st.c == nil {
		st.c = campaign.NewSurvey()
	}
	st.wopt.Invariants = !cfg.DisableInvariants
	st.root = tr.begin("campaign", -1, noShard)
	defer tr.end(st.root)
	defer func() {
		sw := pm.total()
		tr.count("ditl.eachas_calls", float64(sw.Calls))
		tr.count("ditl.ases_visited", float64(sw.ASes))
	}()
	if cfg.Fold {
		return st.runFold()
	}
	return st.runInMemory()
}

// popFor labels the population sweeps of one caller.
func (st *staged) popFor(label string) ditl.Pop {
	return meteredPop{Pop: st.pop, label: label, m: st.pm}
}

func (st *staged) shardCount() int {
	return campaign.Config{Shards: st.cfg.Shards}.ShardCount()
}

func (st *staged) registry() (*routing.Registry, error) {
	sp := st.tr.begin("routing.registry", st.root, noShard)
	defer st.tr.end(sp)
	return world.BuildRegistry(st.popFor("registry"), st.wopt)
}

func (st *staged) reducers() []analysis.Reducer {
	var out []analysis.Reducer
	for _, ph := range st.c.Phases {
		out = append(out, ph.Reducers()...)
	}
	return out
}

// admit streams the shard's candidates into the scanner's admission
// predicate; with hl non-nil it also collects the IPv6 hit list.
func admit(sc *scanner.Scanner, pop ditl.Pop, indices []int, hl map[netip.Prefix]bool) {
	sc.AdmitHint(pop.CandidateCount(indices))
	one := func(a netip.Addr) {
		if hl != nil && a.IsValid() && a.Is6() {
			hl[routing.SubnetOf(a)] = true
		}
		sc.AdmitOne(a)
	}
	pop.EachAS(indices, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				one(r.Addr4)
			}
			if r.HasV6() {
				one(r.Addr6)
			}
		}
		for _, d := range as.DeadTargets {
			one(d)
		}
	})
}

func (st *staged) buildShard(k int, reg *routing.Registry, indices []int, hl map[netip.Prefix]bool, parent int) (*campaign.Shard, error) {
	sp := st.tr.begin("world.build", parent, k)
	w, err := world.BuildWith(st.popFor("world"), reg, st.wopt, indices)
	st.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth, st.scfg)
	if err != nil {
		return nil, err
	}
	sp = st.tr.begin("scanner.admit", parent, k)
	admit(sc, st.popFor("admit"), indices, hl)
	st.tr.end(sp)
	return &campaign.Shard{Index: k, World: w, Scanner: sc}, nil
}

func (st *staged) plan(sh *campaign.Shard, parent int) int {
	sp := st.tr.begin("campaign.plan_shard", parent, sh.Index)
	defer st.tr.end(sp)
	probes := 0
	for _, ph := range st.c.Phases {
		probes += ph.Plan(sh)
	}
	return probes
}

// schedule enqueues the shard's probes, churn and chaos, then arms the
// reactive hooks — the runner's event-queue insertion order.
func (st *staged) schedule(sh *campaign.Shard, duration time.Duration, inj *chaos.Injector, parent int) {
	sp := st.tr.begin("campaign.schedule", parent, sh.Index)
	defer st.tr.end(sp)
	for _, ph := range st.c.Phases {
		ph.Schedule(sh, duration)
	}
	if st.cfg.ChurnFraction > 0 {
		sh.World.ScheduleChurn(st.cfg.ChurnFraction, duration, st.cfg.Scanner.Seed+99)
	}
	if inj != nil {
		st.tr.count("chaos.crashes_scheduled", float64(sh.World.ScheduleChaos(inj)))
	}
	for _, ph := range st.c.Phases {
		ph.Observe(sh)
	}
}

func (st *staged) injector(duration time.Duration, reg *routing.Registry) *chaos.Injector {
	if !st.cfg.Chaos.Enabled {
		return nil
	}
	inj := chaos.NewInjector(st.cfg.Chaos)
	inj.SetWindow(duration)
	inj.SetEligibleRegistry(reg)
	return inj
}

func (st *staged) geo() *geo.DB {
	sp := st.tr.begin("campaign.geo", st.root, noShard)
	defer st.tr.end(sp)
	return campaign.GeoDB(st.popFor("geo"))
}

// simulate runs the shard's simulation, seals its observation runs and
// partitions them, recording the simulator's counters.
func (st *staged) simulate(sh *campaign.Shard, reg *routing.Registry, gdb *geo.DB, parent int) *analysis.Context {
	w, sc, k := sh.World, sh.Scanner, sh.Index
	st.tr.count("eventq.depth_at_start", float64(w.Net.Q.Len()))
	sp := st.tr.begin("netsim.run", parent, k)
	end := w.Net.Run()
	st.tr.end(sp)
	st.recordWorld(w, end)

	sp = st.tr.begin("scanner.seal", parent, k)
	sc.SealRuns()
	st.tr.end(sp)

	sp = st.tr.begin("analysis.partition", parent, k)
	defer st.tr.end(sp)
	return analysis.Partition(st.input(sc, w.ScannerAddr4, w.ScannerAddr6, reg, gdb))
}

// recordWorld adds a finished shard world's simulator counters.
func (st *staged) recordWorld(w *world.World, end time.Duration) {
	t := st.tr
	t.count("eventq.events", float64(w.Net.Q.Processed()))
	t.maxCount("netsim.virtual_s", end.Seconds())
	t.count("netsim.delivered", float64(w.Net.Delivered()))
	drops := w.Net.Drops()
	for _, r := range dropReasons() {
		t.count("netsim.drops."+r.String(), float64(drops[r]))
	}
	rs := w.ResolverStats()
	t.count("resolver.client_queries", float64(rs.ClientQueries))
	t.count("resolver.refused", float64(rs.Refused))
	t.count("resolver.responded", float64(rs.Responded))
	t.count("resolver.upstream_queries", float64(rs.UpstreamQueries))
	t.count("resolver.upstream_tcp", float64(rs.UpstreamTCP))
	t.count("resolver.forwarded", float64(rs.Forwarded))
	t.count("resolver.timeouts", float64(rs.Timeouts))
	t.count("resolver.servfail", float64(rs.ServFail))
	t.count("resolver.crashes", float64(rs.Crashes))
	t.count("resolver.loops", float64(rs.LoopsDetected))
	for _, a := range w.Auth {
		t.count("authserver.log_entries", float64(len(a.Log)))
	}
	if w.Invariants != nil {
		inv := w.Invariants.Report()
		t.count("world.invariant_deliveries", float64(inv.DeliveriesChecked))
		t.count("world.invariant_responses", float64(inv.ResponsesChecked))
		t.count("world.invariant_cache_puts", float64(inv.CachePuts))
		t.count("world.invariant_cache_serves", float64(inv.CacheServes))
		t.count("world.invariant_cache_flushes", float64(inv.CacheFlushes))
		t.count("world.invariant_violations", float64(inv.ViolationCount))
	}
}

// dropReasons lists every netsim.DropReason that discards a packet.
func dropReasons() []netsim.DropReason {
	var out []netsim.DropReason
	for r := netsim.DropMalformed; r <= netsim.DropChaos; r++ {
		out = append(out, r)
	}
	return out
}

func (st *staged) recordScanner(s scanner.Stats) {
	t := st.tr
	t.count("scanner.targets_admitted", float64(s.TargetsAdmitted))
	t.count("scanner.candidates", float64(s.TargetsAdmitted+s.ExcludedSpecial+s.ExcludedUnrouted+s.ExcludedOptOut))
	t.count("scanner.probes_sent", float64(s.ProbesSent))
	t.count("scanner.followup_queries", float64(s.FollowUpQueries))
	t.count("scanner.hits", float64(s.HitsObserved))
	t.count("scanner.partial_hits", float64(s.PartialHitsObserved))
}

func (st *staged) input(sc *scanner.Scanner, addr4, addr6 netip.Addr, reg *routing.Registry, gdb *geo.DB) analysis.Input {
	return analysis.Input{
		Hits:              sc.Hits,
		Partials:          sc.Partials,
		Targets:           sc.Targets,
		ScannerAddrs:      []netip.Addr{addr4, addr6},
		Reg:               reg,
		Geo:               gdb,
		LifetimeThreshold: st.cfg.LifetimeThreshold,
		FollowUpCount:     st.cfg.Scanner.FollowUpCount,
	}
}

// invariantErr mirrors the runner: a violated invariant fails the run.
func (st *staged) invariantErr() error {
	if n := st.tr.counter("world.invariant_violations"); n > 0 {
		return fmt.Errorf("staged: %v simulation invariant violation(s)", n)
	}
	return nil
}

// runInMemory is the in-memory engine: every shard's world is built up
// front, the shards simulate in parallel, and the sealed runs merge in
// memory.
func (st *staged) runInMemory() (*analysis.Report, error) {
	reg, err := st.registry()
	if err != nil {
		return nil, err
	}
	shards := st.shardCount()
	parts := ditl.PartitionIndices(st.pop.NumASes(), shards)
	var hl map[netip.Prefix]bool
	if st.scfg.V6HitList == nil {
		hl = make(map[netip.Prefix]bool, st.pop.V6AddrCount())
		st.scfg.V6HitList = hl
	}
	shs := make([]*campaign.Shard, shards)
	for k := range parts {
		indices := parts[k]
		if shards == 1 {
			indices = nil
		}
		if shs[k], err = st.buildShard(k, reg, indices, hl, st.root); err != nil {
			return nil, err
		}
	}
	probes := 0
	for _, sh := range shs {
		probes += st.plan(sh, st.root)
	}
	duration := scanner.CampaignDuration(probes, shs[0].Scanner.Cfg.Rate)
	inj := st.injector(duration, reg)
	for _, sh := range shs {
		st.schedule(sh, duration, inj, st.root)
	}

	gdb := st.geo()
	ctxs := make([]*analysis.Context, shards)
	sim := st.tr.begin("campaign.simulate", st.root, noShard)
	var wg sync.WaitGroup
	for k, sh := range shs {
		wg.Add(1)
		go func(k int, sh *campaign.Shard) {
			defer wg.Done()
			sp := st.tr.begin("campaign.shard", sim, k)
			defer st.tr.end(sp)
			ctxs[k] = st.simulate(sh, reg, gdb, sp)
		}(k, sh)
	}
	wg.Wait()
	st.tr.end(sim)

	sp := st.tr.begin("runs.merge", st.root, noShard)
	sc := shs[0].Scanner
	if shards > 1 {
		nT, nH, nP := 0, 0, 0
		hitRuns := make([][]scanner.Hit, shards)
		partRuns := make([][]scanner.PartialHit, shards)
		for k, o := range shs {
			nT += len(o.Scanner.Targets)
			nH += len(o.Scanner.Hits)
			nP += len(o.Scanner.Partials)
			hitRuns[k], partRuns[k] = o.Scanner.Hits, o.Scanner.Partials
		}
		targets := make([]scanner.Target, 0, nT)
		for _, o := range shs {
			targets = append(targets, o.Scanner.Targets...)
		}
		sc.Targets = targets
		sc.Hits = runs.MergeSlices(make([]scanner.Hit, 0, nH), scanner.LessHit, hitRuns...)
		sc.Partials = runs.MergeSlices(make([]scanner.PartialHit, 0, nP), scanner.LessPartial, partRuns...)
		for _, o := range shs[1:] {
			sc.Stats.Add(o.Scanner.Stats)
		}
	}
	st.tr.end(sp)
	st.recordScanner(sc.Stats)

	report := &analysis.Report{}
	sp = st.tr.begin("analysis.reduce", st.root, noShard)
	w0 := shs[0].World
	analysis.MergeContexts(st.input(sc, w0.ScannerAddr4, w0.ScannerAddr6, reg, gdb), ctxs).Reduce(report, st.reducers())
	st.tr.end(sp)
	return report, st.invariantErr()
}

// foldOut is what the fold engine keeps of a finished shard.
type foldOut struct {
	ctx          *analysis.Context
	stats        scanner.Stats
	addr4, addr6 netip.Addr
	runPath      string
	err          error
}

// runFold is the fold engine: a world-free planning pass, then a
// bounded worker pool that builds, simulates, partitions and spills one
// shard at a time, then the hierarchical pre-merge of the spilled runs
// and a reduce that streams the final merge.
func (st *staged) runFold() (*analysis.Report, error) {
	if st.scfg.V6HitList == nil {
		sp := st.tr.begin("campaign.hitlist", st.root, noShard)
		st.scfg.V6HitList = campaign.V6HitList(st.popFor("hitlist"))
		st.tr.end(sp)
	}
	reg, err := st.registry()
	if err != nil {
		return nil, err
	}
	shards := st.shardCount()
	parts := ditl.PartitionIndices(st.pop.NumASes(), shards)

	pass := st.tr.begin("campaign.plan_pass", st.root, noShard)
	probes := 0
	rate := 0.0
	for k := range parts {
		pl := scanner.NewPlanner(reg, st.scfg)
		if k == 0 {
			rate = pl.Cfg.Rate
		}
		sp := st.tr.begin("scanner.admit", pass, k)
		admit(pl, st.popFor("plan-admit"), parts[k], nil)
		st.tr.end(sp)
		sh := &campaign.Shard{Index: k, Scanner: pl}
		for _, ph := range st.c.Phases {
			probes += ph.Plan(sh)
		}
	}
	st.tr.end(pass)
	duration := scanner.CampaignDuration(probes, rate)
	inj := st.injector(duration, reg)

	dir, err := os.MkdirTemp("", "surveybench-fold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	gdb := st.geo()
	maxParallel := st.cfg.MaxParallel
	if maxParallel <= 0 {
		maxParallel = runtime.GOMAXPROCS(0)
	}
	outs := make([]*foldOut, shards)
	pool := st.tr.begin("campaign.pool", st.root, noShard)
	sem := make(chan struct{}, maxParallel)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sp := st.tr.begin("campaign.pool_wait", pool, k)
			sem <- struct{}{}
			st.tr.end(sp)
			defer func() { <-sem }()
			outs[k] = st.foldShard(k, parts[k], reg, gdb, duration, inj, dir, pool)
		}(k)
	}
	wg.Wait()
	st.tr.end(pool)

	var stats scanner.Stats
	ctxs := make([]*analysis.Context, shards)
	paths := make([]string, shards)
	for k, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		stats.Add(o.stats)
		ctxs[k], paths[k] = o.ctx, o.runPath
	}
	st.recordScanner(stats)

	sp := st.tr.begin("runs.premerge", st.root, noShard)
	paths, err = premerge(dir, paths)
	st.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("staged: fold pre-merge: %w", err)
	}

	report := &analysis.Report{}
	sp = st.tr.begin("analysis.reduce", st.root, noShard)
	in := analysis.Input{
		ScannerAddrs:      []netip.Addr{outs[0].addr4, outs[0].addr6},
		Reg:               reg,
		Geo:               gdb,
		LifetimeThreshold: st.cfg.LifetimeThreshold,
		FollowUpCount:     st.cfg.Scanner.FollowUpCount,
		Stream: &analysis.Streams{
			Hits:    st.hitStream(paths, sp),
			Targets: targetStream(st.popFor("targets"), reg, st.scfg),
		},
	}
	mctx := analysis.MergeContexts(in, ctxs)
	mctx.Reduce(report, st.reducers())
	st.tr.end(sp)
	if err := mctx.Err(); err != nil {
		return nil, fmt.Errorf("staged: fold reduce: %w", err)
	}
	return report, st.invariantErr()
}

// foldShard simulates one shard end to end and spills its sorted hit
// run; the world is garbage when it returns.
func (st *staged) foldShard(k int, indices []int, reg *routing.Registry, gdb *geo.DB, duration time.Duration, inj *chaos.Injector, dir string, parent int) *foldOut {
	shard := st.tr.begin("campaign.shard", parent, k)
	defer st.tr.end(shard)
	sh, err := st.buildShard(k, reg, indices, nil, shard)
	if err != nil {
		return &foldOut{err: err}
	}
	st.plan(sh, shard)
	st.schedule(sh, duration, inj, shard)
	ctx := st.simulate(sh, reg, gdb, shard)

	sp := st.tr.begin("scanner.spill", shard, k)
	path := filepath.Join(dir, fmt.Sprintf("shard-%05d.run", k))
	err = scanner.WriteHitRun(path, sh.Scanner.Hits)
	st.tr.end(sp)
	if err != nil {
		return &foldOut{err: err}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return &foldOut{err: err}
	}
	st.tr.count("scanner.spill_bytes", float64(fi.Size()))
	w := sh.World
	return &foldOut{ctx: ctx, stats: sh.Scanner.Stats, addr4: w.ScannerAddr4, addr6: w.ScannerAddr6, runPath: path}
}

// premerge merges the spilled runs in contiguous groups of mergeFanIn,
// level by level, until at most mergeFanIn files remain.
func premerge(dir string, paths []string) ([]string, error) {
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

// openRuns opens the run files as merge sources; the returned closer
// closes every reader opened so far.
func openRuns(paths []string) ([]runs.Source[scanner.Hit], func(), error) {
	srcs := make([]runs.Source[scanner.Hit], 0, len(paths))
	var readers []*scanner.HitRunReader
	closeAll := func() {
		for _, rd := range readers {
			rd.Close()
		}
	}
	for _, p := range paths {
		rd, err := scanner.OpenHitRun(p)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		readers = append(readers, rd)
		srcs = append(srcs, rd)
	}
	return srcs, closeAll, nil
}

func mergeRunFiles(outPath string, inPaths []string) error {
	srcs, closeAll, err := openRuns(inPaths)
	if err != nil {
		return err
	}
	defer closeAll()
	w, err := scanner.CreateHitRun(outPath)
	if err != nil {
		return err
	}
	m := runs.NewMerger(scanner.LessHit, srcs...)
	for {
		h, ok := m.Next()
		if !ok {
			break
		}
		if err := w.Write(&h); err != nil {
			w.Close()
			return err
		}
	}
	if err := m.Err(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// hitStream is the reduce's re-drainable merged hit stream. Each drain
// is a runs.merge span; the time spent in the reducers' callback is
// recorded apart, so the merge's own share can be told from the
// reducers'.
func (st *staged) hitStream(paths []string, parent int) func(yield func(h *scanner.Hit)) error {
	return func(yield func(h *scanner.Hit)) error {
		sp := st.tr.begin("runs.merge", parent, noShard)
		defer st.tr.end(sp)
		srcs, closeAll, err := openRuns(paths)
		if err != nil {
			return err
		}
		defer closeAll()
		var inYield time.Duration
		m := runs.NewMerger(scanner.LessHit, srcs...)
		for {
			h, ok := m.Next()
			if !ok {
				break
			}
			t := time.Now()
			yield(&h)
			inYield += time.Since(t)
		}
		st.tr.addTime("runs.merge_yield_s", inYield.Seconds())
		return m.Err()
	}
}

// targetStream re-derives the merged target list from the population
// through the admission predicate, in population order.
func targetStream(pop ditl.Pop, reg *routing.Registry, cfg scanner.Config) func(yield func(t scanner.Target)) error {
	return func(yield func(t scanner.Target)) error {
		pl := scanner.NewPlanner(reg, cfg)
		check := func(a netip.Addr) {
			if t, ok := pl.AdmitCheck(a); ok {
				yield(t)
			}
		}
		pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
			for k := 0; k < as.NumResolvers(); k++ {
				r := as.Resolver(k)
				if r.HasV4() {
					check(r.Addr4)
				}
				if r.HasV6() {
					check(r.Addr6)
				}
			}
			for _, d := range as.DeadTargets {
				check(d)
			}
		})
		return nil
	}
}
