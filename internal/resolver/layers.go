package resolver

import (
	"net/netip"

	"repro/internal/dnswire"
)

// layerSet is the policy a resolver runs on top of its core, derived
// once in New from the Config and the root hints (deriveLayers). The
// core carries mechanism (wire I/O, transactions, timeouts, ports); the
// layers carry policy, and the core calls them directly in one fixed
// order (DESIGN.md §11):
//
//   - admission: the acl check, only when the ACL is closed;
//   - resolve: the cache (always present), then forward, then iterate.
//     A step no layer disposes of — a forwarder whose fraction excludes
//     the name and no root hints, say — ends in SERVFAIL;
//   - qmin rewrites the iterate layer's questions and supplies the
//     policy for intermediate NXDOMAIN/NODATA responses;
//   - crash: the cache flushes, then the forward loop guard clears;
//   - finish: the forward loop guard releases the job's registration.
//
// Every re-entry into the resolve walk (r.step) spends one unit of the
// job's depth budget (Config.MaxSteps), the loop bound: no layer can
// recurse without spending. A layer mutates only its own state and the
// job fields it owns (minConfirmed/fullFallback for qmin,
// fwdHop/fwdGuarded/fwdGuard for forward); the core alone touches wire
// state, pending transactions and the Stats counters it owns.
type layerSet struct {
	acl     bool // closed ACL: admit clients through ACL.Allows
	qmin    bool // QnameMin with root hints (an iterative path to minimize)
	forward bool // Forward or ForwardChain upstreams
	iterate bool // root hints exist
}

// deriveLayers computes the layer set a configuration implies. An open
// ACL runs no acl check at all, so open resolvers — the vast majority
// of a survey population — skip it, and a pure forwarder (no roots)
// never consults qmin or iterate.
func deriveLayers(roots []netip.Addr, cfg Config) layerSet {
	return layerSet{
		acl:     !cfg.ACL.Open,
		qmin:    cfg.QnameMin && len(roots) > 0,
		forward: len(cfg.Forward) > 0 || len(cfg.ForwardChain) > 0,
		iterate: len(roots) > 0,
	}
}

// serveCached answers j from the positive or negative cache, reporting
// whether it did.
func (r *Resolver) serveCached(j *job) bool {
	if rrs, ok := r.cache.getPositive(j.qname, j.qtype); ok {
		r.finish(j, dnswire.RCodeNoError, rrs)
		return true
	}
	if r.cache.getNegative(j.qname) {
		r.finish(j, dnswire.RCodeNXDomain, nil)
		return true
	}
	return false
}

// qminRewrite implements RFC 7816 QNAME minimization: the question sent
// to zone's servers is one label beyond what is already proven, as
// TypeNS, until the full name is reached (or the job fell back to
// full-name queries).
func (r *Resolver) qminRewrite(j *job, zone dnswire.Name) (dnswire.Name, dnswire.Type) {
	if j.fullFallback {
		return j.qname, j.qtype
	}
	base := zone.CountLabels()
	if j.minConfirmed > base {
		base = j.minConfirmed
	}
	total := j.qname.CountLabels()
	if base+1 < total {
		return suffixLabels(j.qname, base+1), dnswire.TypeNS
	}
	return j.qname, j.qtype
}

// qminNXDomain handles NXDOMAIN for a minimized (intermediate) query.
// A lenient implementation distrusts the intermediate NXDOMAIN: it
// neither caches it nor halts — it retries with the full name (RFC
// 7816 fallback). Returning false leaves the strict path — cache per
// RFC 8020 and halt (§3.6.4's 55%) — to the core, which treats it like
// any other NXDOMAIN.
func (r *Resolver) qminNXDomain(j *job, out *outstanding) bool {
	if !r.cfg.QnameMinLenient || j.fullFallback || out.qname.Equal(j.qname) {
		return false
	}
	j.fullFallback = true
	r.step(j)
	return true
}

// qminNoData handles NODATA for a minimized query: the intermediate
// name exists, so record the proven labels and descend.
func (r *Resolver) qminNoData(j *job, out *outstanding) bool {
	if j.fullFallback || out.qname.Equal(j.qname) {
		return false
	}
	j.minConfirmed = out.qname.CountLabels()
	r.step(j)
	return true
}

// fwdKey identifies a question for the forward layer's loop guard.
type fwdKey struct {
	name  dnswire.Name
	qtype dnswire.Type
}

// forwardLayer is the forward layer's state. Two modes:
//
//   - Single-upstream (Config.Forward): one upstream is drawn per
//     query, exactly the monolith's behaviour — including spending an
//     RNG draw when only one upstream is configured, which the
//     conformance harness pins.
//   - Chain (Config.ForwardChain): hops are tried in order; when a hop
//     fails, the core calls advance to move to the next. Chains arm
//     the loop guard: each forwarded question is registered in-flight,
//     and a client query for a question already in flight is REFUSED.
//     That terminates forwarding cycles — A→B→A bounces the query
//     back to A while A still awaits B, and self-forwarding re-arrives
//     immediately — in one round-trip instead of cascading timeouts,
//     and never duplicates a probe for the looping question.
type forwardLayer struct {
	chain    []netip.Addr
	inflight map[fwdKey]int // nil unless chain mode
}

// forward sends j upstream unless ForwardFraction excludes its name,
// reporting whether it disposed of the step.
func (r *Resolver) forward(j *job) bool {
	if !r.forwardFractionHit(j.qname) {
		return false
	}
	l := &r.fwd
	if l.chain == nil {
		up := r.cfg.Forward[r.rng.Intn(len(r.cfg.Forward))]
		r.Stats.Forwarded++
		r.sendUpstream(j, up, j.qname, j.qtype, true)
		return true
	}
	if !j.fwdGuarded {
		key := fwdKey{j.qname.Canonical(), j.qtype}
		if l.inflight[key] > 0 {
			// The question is already in flight upstream: this query is
			// our own, come back around a forwarding cycle. Refuse it.
			r.Stats.LoopsDetected++
			r.finish(j, dnswire.RCodeRefused, nil)
			return true
		}
		l.inflight[key]++
		j.fwdGuarded = true
		j.fwdGuard = key
	}
	r.Stats.Forwarded++
	r.sendUpstream(j, l.chain[j.fwdHop], j.qname, j.qtype, true)
	return true
}

// advance moves j to the next chain hop, reporting false when the chain
// (or single mode, which has no hops to advance) is exhausted.
func (l *forwardLayer) advance(j *job) (netip.Addr, bool) {
	if l.chain == nil || j.fwdHop+1 >= len(l.chain) {
		return netip.Addr{}, false
	}
	j.fwdHop++
	return l.chain[j.fwdHop], true
}

// release drops the loop-guard registration forward took for j. It
// reuses the key recorded at guard time — recomputing it would
// re-canonicalize the qname, an allocation hotalloc forbids here.
func (l *forwardLayer) release(j *job) {
	if !j.fwdGuarded {
		return
	}
	j.fwdGuarded = false
	key := j.fwdGuard
	if n := l.inflight[key]; n <= 1 {
		delete(l.inflight, key)
	} else {
		//lint:allow hotalloc -- decrementing an existing in-flight count; the key was inserted by forward, so no bucket growth
		l.inflight[key] = n - 1
	}
}

// reset drops every loop-guard registration on a crash: the jobs they
// belong to died with the process, so their release will never run.
func (l *forwardLayer) reset() { clear(l.inflight) }

// iterate resolves j iteratively from the closest cached delegation
// (or the root hints), minimizing the question when qmin is on.
func (r *Resolver) iterate(j *job) {
	zone, servers := dnswire.Root, r.Roots
	if d, ok := r.cache.closestDelegation(j.qname); ok {
		zone, servers = d.apex, d.addrs
	}
	qname, qtype := j.qname, j.qtype
	if r.layers.qmin {
		qname, qtype = r.qminRewrite(j, zone)
	}
	server, ok := r.pickServer(servers)
	if !ok {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.sendUpstream(j, server, qname, qtype, false)
}
