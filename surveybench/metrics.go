package main

import (
	"sort"
)

// metricDef describes one reported metric. For a per-layer metric,
// moves names the end-to-end metrics a change to it should move, and on
// the workloads where that shows; this is the map a change claiming a
// gain is checked against.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Moves  []string `json:"moves,omitempty"`
	On     []string `json:"workloads,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. A run's failed and attempted counts carry its error rate
// (failed runs over attempted runs); it is not a metric here because it
// is 0 on a healthy run, and a bound relative to 0 cannot be checked.
//
// The time bounds are wide because the host's speed is not: on a shared
// 2-CPU VM, identical campaigns' CPU time moved by up to 20% between
// runs a minute apart, while peak RSS stayed within 3%.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "targets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var (
	onSurveys = []string{"survey", "survey-chaos"}
	onFold    = []string{"inbound-sav-fold"}
)

// group gives metrics the same moves/on map.
func group(moves, on []string, ms ...metricDef) []metricDef {
	for i := range ms {
		ms[i].Moves, ms[i].On = moves, on
	}
	return ms
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the traced run's metrics. Counts are deterministic for a
// seed; times (_s, _ns) are wall clock, summed over shards where shards
// run in parallel; _alloc_mb is process-wide heap allocation during the
// layer's spans, which overlaps other shards' work where shards run in
// parallel. A stage an engine does not have reads 0.
var perLayer = concat(
	// Simulator.
	group([]string{"wall_s", "cpu_s"}, onSurveys,
		lower("netsim.run_s", "s"),
		lower("netsim.run_alloc_mb", "MiB"),
		lower("netsim.virtual_s", "s"),
		lower("eventq.events", "count"),
		lower("eventq.depth_at_start", "count"),
		lower("netsim.ns_per_event", "ns"),
		higher("netsim.delivered", "count"),
		lower("netsim.drops.malformed", "count"),
		lower("netsim.drops.osav", "count"),
		lower("netsim.drops.no-route", "count"),
		lower("netsim.drops.loss", "count"),
		lower("netsim.drops.ttl-exceeded", "count"),
		lower("netsim.drops.bogon-source", "count"),
		lower("netsim.drops.dsav", "count"),
		lower("netsim.drops.no-host", "count"),
		lower("netsim.drops.kernel-spoof", "count"),
		lower("netsim.drops.no-listener", "count"),
		lower("netsim.drops.chaos", "count"),
		lower("netsim.drop_ratio", "ratio"),
		higher("resolver.client_queries", "count"),
		lower("resolver.refused", "count"),
		higher("resolver.responded", "count"),
		lower("resolver.upstream_queries", "count"),
		lower("resolver.upstream_tcp", "count"),
		lower("resolver.forwarded", "count"),
		lower("resolver.timeouts", "count"),
		lower("resolver.servfail", "count"),
		lower("resolver.crashes", "count"),
		lower("resolver.loops", "count"),
		higher("resolver.answer_ratio", "ratio"),
		higher("authserver.log_entries", "count"),
		higher("world.invariant_deliveries", "count"),
		higher("world.invariant_responses", "count"),
		higher("world.invariant_cache_puts", "count"),
		higher("world.invariant_cache_serves", "count"),
		higher("world.invariant_cache_flushes", "count"),
		lower("world.invariant_violations", "count"),
		lower("chaos.crashes_scheduled", "count"),
	),
	// Layer kernels, per operation, on inputs from the workload's own
	// population.
	group([]string{"cpu_s"}, onSurveys,
		lower("packet.build_udp_ns", "ns"),
		lower("packet.build_udp_allocs", "count"),
		lower("packet.decode_ns", "ns"),
		lower("packet.decode_allocs", "count"),
		lower("dnswire.pack_ns", "ns"),
		lower("dnswire.pack_allocs", "count"),
		lower("dnswire.unpack_ns", "ns"),
		lower("dnswire.unpack_allocs", "count"),
		lower("authserver.respond_ns", "ns"),
		lower("routing.lookup_ns", "ns"),
		lower("eventq.op_ns", "ns"),
		lower("detrand.rand_ns", "ns"),
		lower("detrand.rand_bytes", "B"),
	),
	// Front end: population sweeps, admission, planning, world builds.
	group([]string{"wall_s", "targets_per_s"}, onFold,
		lower("ditl.eachas_calls", "count"),
		lower("ditl.ases_visited", "count"),
		lower("ditl.synth_s", "s"),
		lower("routing.registry_s", "s"),
		lower("world.build_s", "s"),
		lower("world.build_alloc_mb", "MiB"),
		lower("scanner.admit_s", "s"),
		higher("scanner.targets_admitted", "count"),
		higher("scanner.admit_ratio", "ratio"),
		lower("campaign.plan_pass_s", "s"),
		lower("campaign.plan_shard_s", "s"),
		lower("campaign.schedule_s", "s"),
		higher("scanner.probes_sent", "count"),
		higher("scanner.followup_queries", "count"),
		higher("scanner.hits", "count"),
		higher("scanner.partial_hits", "count"),
		higher("scanner.hit_ratio", "ratio"),
	),
	// Reduce: seal, partition, merge, spill, pre-merge, reduce.
	group([]string{"wall_s", "peak_rss_mb"}, onFold,
		lower("scanner.seal_s", "s"),
		lower("analysis.partition_s", "s"),
		lower("runs.merge_s", "s"),
		lower("scanner.spill_s", "s"),
		lower("scanner.spill_bytes", "B"),
		lower("runs.premerge_s", "s"),
		lower("analysis.reduce_s", "s"),
	),
	// Orchestration. pool_wait_s sums every shard's wait for a worker.
	group([]string{"wall_s"}, onFold,
		lower("campaign.pool_wait_s", "s"),
		lower("campaign.shard_s_p50", "s"),
		lower("campaign.shard_s_p80", "s"),
		lower("trace.overhead_frac", "ratio"),
	),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// layerValues computes every per-layer metric of a traced run.
func layerValues(tr *tracer, pm *popMeter, kr map[string]kernelResult, overheadFrac float64) map[string]float64 {
	const mib = 1 << 20
	c := tr.counters
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.Name] = c[m.Name] // counters recorded under their metric name
	}
	spanS := func(name string) float64 { s, _ := tr.spanTotals(name); return s }
	spanMiB := func(name string) float64 { _, b := tr.spanTotals(name); return float64(b) / mib }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["netsim.run_s"] = spanS("netsim.run")
	v["netsim.run_alloc_mb"] = spanMiB("netsim.run")
	v["netsim.ns_per_event"] = ratio(v["netsim.run_s"]*1e9, c["eventq.events"])
	drops := 0.0
	for _, r := range dropReasons() {
		drops += c["netsim.drops."+r.String()]
	}
	v["netsim.drop_ratio"] = ratio(drops, drops+c["netsim.delivered"])
	v["resolver.answer_ratio"] = ratio(c["resolver.responded"], c["resolver.client_queries"])

	for _, k := range []string{"packet.build_udp", "packet.decode", "dnswire.pack", "dnswire.unpack"} {
		v[k+"_ns"] = kr[k].NsPerOp
		v[k+"_allocs"] = kr[k].AllocsPerOp
	}
	for _, k := range []string{"authserver.respond", "routing.lookup", "eventq.op", "detrand.rand"} {
		v[k+"_ns"] = kr[k].NsPerOp
	}
	v["detrand.rand_bytes"] = kr["detrand.rand"].BytesPerOp

	sw := pm.total()
	v["ditl.synth_s"] = sw.SelfS
	v["routing.registry_s"] = spanS("routing.registry")
	v["world.build_s"] = spanS("world.build")
	v["world.build_alloc_mb"] = spanMiB("world.build")
	v["scanner.admit_s"] = spanS("scanner.admit")
	v["scanner.admit_ratio"] = ratio(c["scanner.targets_admitted"], c["scanner.candidates"])
	v["campaign.plan_pass_s"] = spanS("campaign.plan_pass")
	v["campaign.plan_shard_s"] = spanS("campaign.plan_shard")
	v["campaign.schedule_s"] = spanS("campaign.schedule")
	v["scanner.hit_ratio"] = ratio(c["scanner.hits"], c["scanner.probes_sent"])

	v["scanner.seal_s"] = spanS("scanner.seal")
	v["analysis.partition_s"] = spanS("analysis.partition")
	v["runs.merge_s"] = spanS("runs.merge") - tr.times["runs.merge_yield_s"]
	v["scanner.spill_s"] = spanS("scanner.spill")
	v["runs.premerge_s"] = spanS("runs.premerge")
	v["analysis.reduce_s"] = spanS("analysis.reduce")

	v["campaign.pool_wait_s"] = spanS("campaign.pool_wait")
	shardS := tr.durations("campaign.shard")
	v["campaign.shard_s_p50"] = percentile(shardS, 0.5)
	v["campaign.shard_s_p80"] = percentile(shardS, 0.8)
	v["trace.overhead_frac"] = overheadFrac
	return v
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median of xs; 0 when empty.
func median(xs []float64) float64 { return percentile(xs, 0.5) }
