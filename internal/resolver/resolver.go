// Package resolver implements the recursive DNS resolvers that populate
// the simulated Internet.
//
// A resolver is a small event-driven core — client-query admission,
// upstream I/O (UDP retransmission, TCP retry on truncation), transaction
// and port bookkeeping — plus a fixed set of policy layers: a client
// ACL check, a positive/negative/delegation cache, RFC 7816 QNAME
// minimization, forwarding (single-upstream or multi-hop chains with
// loop detection), and iterative resolution from root hints. New
// derives which layers a resolver runs from its Config and root hints —
// the axes along which measured resolvers differ: open or closed ACL,
// strict or lenient minimization, forwarding or iterating — so its hot
// path consults only the layers it uses. See DESIGN.md §11.
//
// The package's behaviour is pinned by a differential conformance
// harness against internal/resolver/monolith, a frozen copy of the
// pre-refactor implementation: for every configuration the monolith can
// express, the layered resolver emits bit-identical events (packets, RNG
// draws, cache-observer traces). New capability — forwarder chains and
// loop detection — lives strictly outside that shared configuration
// space.
package resolver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// Salt constants for the resolver's detrand domains (band 61+; the
// saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages). The frozen
// monolith snapshot (internal/resolver/monolith) keys its stream on the
// same value 61 — deliberately, and deliberately without registering a
// second band — so the two implementations draw identical streams.
const (
	// saltStream keys the resolver's per-instance draw stream (txn
	// IDs, 0x20 case bits, server selection) on its configured seed.
	saltStream = 61 + iota
)

// ACL is a resolver's client access policy. The paper's "closed"
// resolvers are ACLs restricted to prefixes the operator trusts —
// typically prefixes of the resolver's own network, which is exactly
// what spoofed-internal sources defeat when DSAV is absent (§5.1).
type ACL struct {
	// Open accepts any client.
	Open bool
	// Allowed lists client prefixes accepted when not Open.
	Allowed []netip.Prefix
}

// Allows reports whether a client source address is accepted.
//
//doors:hotpath
func (a ACL) Allows(src netip.Addr) bool {
	if a.Open {
		return true
	}
	for _, p := range a.Allowed {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// Config parameterizes a resolver.
type Config struct {
	// ACL is the client access policy (enforced by the acl layer; an
	// Open ACL runs no check at all).
	ACL ACL
	// Ports allocates source ports for outgoing queries.
	Ports PortAllocator
	// Forward, when non-empty, lists upstream resolvers to forward to
	// instead of recursing; one is drawn per query. Mutually exclusive
	// with ForwardChain.
	Forward []netip.Addr
	// ForwardChain, when non-empty, is an ordered multi-hop forwarder
	// chain: hop 0 is tried first, and when a hop fails — its
	// retransmissions exhaust, or it answers with a non-useful RCode —
	// the next hop is tried before giving up. Chains also arm the
	// forward layer's loop guard: a client query for a question this
	// resolver already holds in flight upstream is answered REFUSED,
	// which is what terminates forwarding cycles (A→B→A and
	// self-forwarding included) instead of letting them amplify until
	// every hop's timeout fires. Mutually exclusive with Forward.
	ForwardChain []netip.Addr
	// ForwardFraction is the fraction of queries forwarded when Forward
	// or ForwardChain is set (1.0 = pure forwarder; intermediate values
	// model the mixed-behaviour targets of §5.4). Selection is by
	// query-name hash, so it is deterministic.
	ForwardFraction float64
	// QnameMin enables RFC 7816 QNAME minimization.
	QnameMin bool
	// QnameMinLenient, with QnameMin, retries with the full query name
	// when a minimized query yields NXDOMAIN instead of halting (the
	// implementation split observed in §3.6.4).
	QnameMinLenient bool
	// Timeout is the per-attempt upstream timeout (default 2s).
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt
	// (default 2).
	Retries int
	// MaxSteps bounds resolution work per client query (default 40).
	// It is the job's depth budget: every re-entry into the resolve
	// walk spends one unit, and an exhausted budget ends the job with
	// SERVFAIL — the depth-based loop detection of the layer contract.
	MaxSteps int
	// Use0x20 randomizes query-name letter case on upstream queries
	// (draft-vixie-dnsext-dns0x20): responses whose question does not
	// echo the exact case are rejected, adding ~1 bit of anti-spoofing
	// entropy per letter on top of the port and transaction ID.
	// 0x20 is a core wire transform, not a layer: it rewrites every
	// upstream query whatever layers the resolver runs.
	Use0x20 bool
	// Seed seeds the resolver's private RNG (transaction IDs, server
	// selection, port randomness).
	Seed int64
	// CacheObserver, when set, receives cache put/serve/flush events —
	// the hook the world's invariant checker uses to assert TTL safety
	// under churn and crash.
	CacheObserver CacheObserver
}

// Stats counts resolver activity.
type Stats struct {
	ClientQueries   uint64
	Refused         uint64
	Responded       uint64
	UpstreamQueries uint64
	UpstreamTCP     uint64
	Forwarded       uint64
	Timeouts        uint64
	ServFail        uint64
	Crashes         uint64
	// LoopsDetected counts client queries the forward layer's loop
	// guard refused (forwarder chains only; always 0 otherwise).
	LoopsDetected uint64
}

// Resolver is a recursive DNS resolver (or forwarder) bound to a
// simulated host on UDP port 53.
type Resolver struct {
	Host  *netsim.Host
	Roots []netip.Addr
	Stats Stats

	cfg     Config
	rng     *rand.Rand
	pending map[pendKey]*outstanding
	portRef map[uint16]int

	layers layerSet
	cache  *cache
	fwd    forwardLayer
}

type pendKey struct {
	port uint16
	id   uint16
}

// outstanding is one in-flight upstream query.
type outstanding struct {
	job      *job
	key      pendKey
	server   netip.Addr
	qname    dnswire.Name
	wireName dnswire.Name // case-randomized form when 0x20 is enabled
	qtype    dnswire.Type
	attempt  int
	rd       bool // recursive (forwarded) rather than iterative
	done     bool
}

// job is one client query being resolved.
type job struct {
	client     netip.Addr
	clientPort uint16
	local      netip.Addr
	id         uint16
	rd         bool
	qname      dnswire.Name
	qtype      dnswire.Type

	depth        int    // remaining stack re-entries (MaxSteps budget)
	minConfirmed int    // labels proven to exist (QNAME minimization)
	fullFallback bool   // lenient qmin switched to full-name queries
	fwdHop       int    // current hop in a forwarder chain
	fwdGuarded   bool   // job holds a loop-guard in-flight registration
	fwdGuard     fwdKey // the registered key, kept so release need not re-canonicalize
	finished     bool
}

// New binds a resolver to host. roots are the root server addresses
// (root hints). The layers it runs are derived from cfg and roots
// (deriveLayers).
func New(host *netsim.Host, roots []netip.Addr, cfg Config) (*Resolver, error) {
	if cfg.Ports == nil {
		return nil, fmt.Errorf("resolver: %s: nil port allocator", host.Name)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 40
	}
	if len(cfg.Forward) > 0 && len(cfg.ForwardChain) > 0 {
		return nil, fmt.Errorf("resolver: %s: Forward and ForwardChain are mutually exclusive", host.Name)
	}
	if len(roots) == 0 && len(cfg.Forward) == 0 && len(cfg.ForwardChain) == 0 {
		return nil, fmt.Errorf("resolver: %s: no root hints and no forwarders", host.Name)
	}
	r := &Resolver{
		Host: host, Roots: roots, cfg: cfg,
		rng:     detrand.Rand(uint64(cfg.Seed), saltStream),
		pending: make(map[pendKey]*outstanding),
		portRef: make(map[uint16]int),
		layers:  deriveLayers(roots, cfg),
		cache:   newCache(host.Network().Now),
	}
	if len(host.Addrs) > 0 {
		r.cache.owner = host.Addrs[0]
	}
	r.cache.obs = cfg.CacheObserver
	if len(cfg.ForwardChain) > 0 {
		r.fwd = forwardLayer{chain: cfg.ForwardChain, inflight: make(map[fwdKey]int)}
	}
	if err := host.BindUDP(53, r.dispatch); err != nil {
		return nil, err
	}
	r.portRef[53] = 1 // never unbound
	return r, nil
}

// Config returns the resolver's configuration.
func (r *Resolver) Config() Config { return r.cfg }

// dispatch routes every received UDP datagram: responses to pending
// upstream queries by (port, id); everything else is a client query.
// This sharing is what lets fixed-port-53 resolvers work: their upstream
// source port is the service port.
func (r *Resolver) dispatch(now time.Duration, src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	msg, err := dnswire.Unpack(payload)
	if err != nil {
		return
	}
	if msg.QR {
		key := pendKey{port: dstPort, id: msg.ID}
		out, ok := r.pending[key]
		if !ok || out.done || out.server != src || !msg.Q().Name.Equal(out.qname) {
			return
		}
		if r.cfg.Use0x20 && string(msg.Q().Name) != string(out.wireName) {
			return // 0x20: echoed case mismatch — forged response
		}
		out.done = true
		delete(r.pending, key)
		r.releasePort(dstPort)
		r.onResponse(out, msg, false)
		return
	}
	r.HandleQuery(now, src, srcPort, dst, payload)
}

// HandleQuery processes a client query datagram addressed to local. It
// is exported so transparent middleboxes can inject intercepted queries.
func (r *Resolver) HandleQuery(now time.Duration, src netip.Addr, srcPort uint16, local netip.Addr, payload []byte) {
	msg, err := dnswire.Unpack(payload)
	if err != nil || msg.QR || len(msg.Question) == 0 || msg.OpCode != dnswire.OpQuery {
		return
	}
	r.Stats.ClientQueries++
	q := msg.Q()
	if r.layers.acl && !r.cfg.ACL.Allows(src) {
		r.Stats.Refused++
		rep := msg.Reply()
		rep.RCode = dnswire.RCodeRefused
		r.reply(src, srcPort, local, rep)
		return
	}
	j := &job{
		client: src, clientPort: srcPort, local: local,
		id: msg.ID, rd: msg.RD, qname: q.Name, qtype: q.Type,
		depth: r.cfg.MaxSteps,
	}
	r.step(j)
}

// reply sends a response message to a client.
func (r *Resolver) reply(client netip.Addr, clientPort uint16, local netip.Addr, msg *dnswire.Message) {
	msg.RA = true
	out, err := msg.Pack()
	if err != nil {
		return
	}
	r.Host.SendUDP(local, 53, client, clientPort, out)
}

// finish responds to the job's client and marks it complete, releasing
// the forward layer's loop-guard registration for it.
func (r *Resolver) finish(j *job, rcode dnswire.RCode, answers []dnswire.RR) {
	if j.finished {
		return
	}
	j.finished = true
	r.fwd.release(j)
	r.Stats.Responded++
	if rcode == dnswire.RCodeServFail {
		r.Stats.ServFail++
	}
	rep := &dnswire.Message{ID: j.id, QR: true, RD: j.rd, RCode: rcode}
	rep.Question = []dnswire.Question{{Name: j.qname, Type: j.qtype, Class: dnswire.ClassIN}}
	rep.Answer = answers
	r.reply(j.client, j.clientPort, j.local, rep)
}

// step re-enters the resolve walk for j, spending one unit of its depth
// budget; an exhausted budget ends the job with SERVFAIL.
func (r *Resolver) step(j *job) {
	if j.finished {
		return
	}
	j.depth--
	if j.depth < 0 {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.resolve(j)
}

// resolve tries the layers in order — cache, forward, iterate — until
// one disposes of the step (serves from cache, issues an upstream
// query, or finishes the job). A step all decline — a forwarder whose
// fraction excludes the name and no root hints, say — ends in SERVFAIL,
// exactly as the monolith's fall-through did.
func (r *Resolver) resolve(j *job) {
	if r.serveCached(j) {
		return
	}
	if r.layers.forward && r.forward(j) {
		return
	}
	if r.layers.iterate {
		r.iterate(j)
		return
	}
	r.finish(j, dnswire.RCodeServFail, nil)
}

// forwardFractionHit applies the ForwardFraction policy for a query
// name (shared by the single-upstream and chain forwarding modes).
func (r *Resolver) forwardFractionHit(name dnswire.Name) bool {
	if r.cfg.ForwardFraction >= 1 || r.cfg.ForwardFraction == 0 {
		return true // forwarding configured: default is a pure forwarder
	}
	h := fnv.New32a()
	h.Write([]byte(name.Canonical()))
	return float64(h.Sum32()%1000) < r.cfg.ForwardFraction*1000
}

// suffixLabels returns the last k labels of name.
func suffixLabels(name dnswire.Name, k int) dnswire.Name {
	labels := name.Labels()
	if k >= len(labels) {
		return name
	}
	return dnswire.NewName(labels[len(labels)-k:]...)
}

// pickServer chooses a server address reachable from the host's address
// families.
func (r *Resolver) pickServer(servers []netip.Addr) (netip.Addr, bool) {
	var usable []netip.Addr
	for _, s := range servers {
		if r.Host.Addr(s.Is6()).IsValid() {
			usable = append(usable, s)
		}
	}
	if len(usable) == 0 {
		return netip.Addr{}, false
	}
	return usable[r.rng.Intn(len(usable))], true
}

func (r *Resolver) bindPort(port uint16) bool {
	if r.portRef[port] == 0 {
		if err := r.Host.BindUDP(port, r.dispatch); err != nil {
			return false
		}
	}
	r.portRef[port]++
	return true
}

func (r *Resolver) releasePort(port uint16) {
	r.portRef[port]--
	if r.portRef[port] <= 0 {
		delete(r.portRef, port)
		r.Host.UnbindUDP(port)
	}
}

// sendUpstream issues one upstream query attempt (recursive when rd is
// set — forwarding — otherwise iterative) and schedules its timeout.
func (r *Resolver) sendUpstream(j *job, server netip.Addr, qname dnswire.Name, qtype dnswire.Type, rd bool) {
	local := r.Host.Addr(server.Is6())
	if !local.IsValid() {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	port := r.cfg.Ports.Next()
	id := uint16(r.rng.Intn(65536))
	key := pendKey{port: port, id: id}
	for tries := 0; tries < 8; tries++ {
		if _, clash := r.pending[key]; !clash {
			break
		}
		id = uint16(r.rng.Intn(65536))
		key = pendKey{port: port, id: id}
	}
	if _, clash := r.pending[key]; clash {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	if !r.bindPort(port) {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}

	wireName := qname
	if r.cfg.Use0x20 {
		wireName = randomizeCase(qname, r.rng)
	}
	q := dnswire.NewQuery(id, wireName, qtype)
	q.RD = rd
	q.SetEDNS(dnswire.DefaultEDNSSize)
	payload, err := q.Pack()
	if err != nil {
		r.releasePort(port)
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out := &outstanding{job: j, key: key, server: server, qname: qname, wireName: wireName, qtype: qtype, rd: rd}
	r.pending[key] = out
	r.Stats.UpstreamQueries++
	r.Host.SendUDP(local, port, server, 53, payload)

	r.Host.Network().Q.After(r.cfg.Timeout, func(now time.Duration) {
		if out.done {
			return
		}
		out.done = true
		delete(r.pending, key)
		r.releasePort(port)
		r.Stats.Timeouts++
		if out.attempt < r.cfg.Retries {
			next := &outstanding{job: j, server: server, qname: qname, qtype: qtype, attempt: out.attempt + 1, rd: rd}
			r.retransmit(next, rd)
			return
		}
		r.upstreamFailed(j, rd)
	})
}

// retransmit re-issues an attempt with a fresh port and transaction ID.
func (r *Resolver) retransmit(out *outstanding, rd bool) {
	j := out.job
	if j.finished {
		return
	}
	port := r.cfg.Ports.Next()
	id := uint16(r.rng.Intn(65536))
	key := pendKey{port: port, id: id}
	if _, clash := r.pending[key]; clash {
		id = uint16(r.rng.Intn(65536))
		key = pendKey{port: port, id: id}
	}
	if !r.bindPort(port) {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out.wireName = out.qname
	if r.cfg.Use0x20 {
		out.wireName = randomizeCase(out.qname, r.rng)
	}
	q := dnswire.NewQuery(id, out.wireName, out.qtype)
	q.RD = rd
	payload, err := q.Pack()
	if err != nil {
		r.releasePort(port)
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	out.key = key
	r.pending[key] = out
	r.Stats.UpstreamQueries++
	local := r.Host.Addr(out.server.Is6())
	r.Host.SendUDP(local, port, out.server, 53, payload)

	attempt := out.attempt
	r.Host.Network().Q.After(r.cfg.Timeout, func(now time.Duration) {
		if out.done {
			return
		}
		out.done = true
		delete(r.pending, key)
		r.releasePort(port)
		r.Stats.Timeouts++
		if attempt < r.cfg.Retries {
			next := &outstanding{job: j, server: out.server, qname: out.qname, qtype: out.qtype, attempt: attempt + 1, rd: rd}
			r.retransmit(next, rd)
			return
		}
		r.upstreamFailed(j, rd)
	})
}

// upstreamFailed ends an upstream attempt whose retransmissions are
// exhausted (or that answered uselessly). A forwarder chain with hops
// remaining advances to the next hop; otherwise the job fails — the
// monolith's unconditional SERVFAIL.
func (r *Resolver) upstreamFailed(j *job, rd bool) {
	if rd {
		if next, ok := r.fwd.advance(j); ok {
			r.Stats.Forwarded++
			r.sendUpstream(j, next, j.qname, j.qtype, true)
			return
		}
	}
	r.finish(j, dnswire.RCodeServFail, nil)
}

// onResponse processes an upstream response (UDP or TCP). The skeleton
// classifies the message; the qmin and cache layers supply the policy
// for intermediate results and for what gets remembered.
func (r *Resolver) onResponse(out *outstanding, msg *dnswire.Message, viaTCP bool) {
	j := out.job
	if j.finished {
		return
	}

	// Truncated: retry the same query over TCP (RFC 7766), the behaviour
	// the experiment's TC follow-up elicits to capture a SYN (§3.5).
	if msg.TC && !viaTCP {
		r.queryTCP(out)
		return
	}

	switch {
	case msg.RCode == dnswire.RCodeNXDomain:
		if r.layers.qmin && r.qminNXDomain(j, out) {
			return
		}
		r.cache.putNegative(out.qname, negativeTTL(msg))
		r.finish(j, dnswire.RCodeNXDomain, nil)

	case len(msg.Answer) > 0:
		ttl := msg.Answer[0].TTL
		r.cache.putPositive(out.qname, out.qtype, msg.Answer, ttl)
		if out.qname.Equal(j.qname) && out.qtype == j.qtype {
			r.finish(j, dnswire.RCodeNoError, msg.Answer)
			return
		}
		// Intermediate (minimized) answer: the name exists, descend.
		j.minConfirmed = out.qname.CountLabels()
		r.step(j)

	case isReferral(msg, out.qname):
		apex, addrs, ttl := referralInfo(msg)
		if len(addrs) == 0 {
			r.finish(j, dnswire.RCodeServFail, nil)
			return
		}
		r.cache.putDelegation(apex, addrs, ttl)
		r.step(j)

	case msg.RCode == dnswire.RCodeNoError:
		// NODATA: the name exists but has no records of this type.
		if r.layers.qmin && r.qminNoData(j, out) {
			return
		}
		r.finish(j, dnswire.RCodeNoError, nil)

	default:
		r.upstreamFailed(j, out.rd)
	}
}

// queryTCP re-issues out's query over TCP after a truncated UDP reply.
func (r *Resolver) queryTCP(out *outstanding) {
	j := out.job
	local := r.Host.Addr(out.server.Is6())
	port := r.cfg.Ports.Next()
	id := uint16(r.rng.Intn(65536))
	q := dnswire.NewQuery(id, out.qname, out.qtype)
	payload, err := q.Pack()
	if err != nil {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	framed := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(framed, uint16(len(payload)))
	copy(framed[2:], payload)

	r.Stats.UpstreamTCP++
	var buf []byte
	responded := false
	_, err = r.Host.DialTCP(local, port, out.server, 53, func(c *netsim.TCPConn) {
		c.OnData = func(now time.Duration, data []byte) {
			buf = append(buf, data...)
			if len(buf) < 2 {
				return
			}
			n := int(binary.BigEndian.Uint16(buf[:2]))
			if len(buf) < 2+n {
				return
			}
			resp, err := dnswire.Unpack(buf[2 : 2+n])
			c.Close()
			if err != nil || responded {
				return
			}
			responded = true
			r.onResponse(out, resp, true)
		}
		c.Send(framed)
	})
	if err != nil {
		r.finish(j, dnswire.RCodeServFail, nil)
		return
	}
	r.Host.Network().Q.After(r.cfg.Timeout*time.Duration(1+r.cfg.Retries), func(time.Duration) {
		if !responded && !j.finished {
			responded = true
			r.finish(j, dnswire.RCodeServFail, nil)
		}
	})
}

// isReferral reports whether msg is a downward referral for qname.
func isReferral(msg *dnswire.Message, qname dnswire.Name) bool {
	if msg.RCode != dnswire.RCodeNoError || len(msg.Answer) > 0 {
		return false
	}
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeNS && qname.IsSubdomainOf(rr.Name) {
			return true
		}
	}
	return false
}

// referralInfo extracts the delegation apex, glued server addresses, and
// TTL from a referral.
func referralInfo(msg *dnswire.Message) (dnswire.Name, []netip.Addr, uint32) {
	var apex dnswire.Name
	var ttl uint32 = 300
	nsNames := make(map[dnswire.Name]bool)
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeNS {
			apex = rr.Name
			ttl = rr.TTL
			nsNames[rr.Target.Canonical()] = true
		}
	}
	var addrs []netip.Addr
	for _, rr := range msg.Additional {
		if (rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA) && nsNames[rr.Name.Canonical()] {
			addrs = append(addrs, rr.Addr)
		}
	}
	return apex, addrs, ttl
}

// negativeTTL extracts the negative-caching TTL from the SOA minimum
// (RFC 2308), defaulting to 300s.
func negativeTTL(msg *dnswire.Message) uint32 {
	for _, rr := range msg.Authority {
		if rr.Type == dnswire.TypeSOA && rr.SOA != nil {
			ttl := rr.SOA.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl
		}
	}
	return 300
}

// CachedAnswer exposes the positive cache for inspection — used by the
// attack simulator's verification step and by tests.
func (r *Resolver) CachedAnswer(name dnswire.Name, typ dnswire.Type) ([]dnswire.RR, bool) {
	return r.cache.getPositive(name, typ)
}

// Crash simulates a process crash and immediate restart: the layers
// holding soft state drop it (the cache flushes, then the forward loop
// guard clears), every in-flight upstream query is abandoned (its
// response, if it arrives, no longer matches any pending state), and
// ephemeral ports are released. Clients whose queries were in flight
// simply never hear back — exactly what a restarted resolver looks like
// from outside. The port-53 service binding survives because
// the supervisor restarts the process instantly in virtual time.
func (r *Resolver) Crash(now time.Duration) {
	r.Stats.Crashes++
	r.cache.flush()
	r.fwd.reset()
	for key, out := range r.pending {
		out.done = true
		delete(r.pending, key)
		r.releasePort(key.port)
	}
}

// randomizeCase flips each letter of name to a random case (DNS 0x20).
func randomizeCase(name dnswire.Name, rng *rand.Rand) dnswire.Name {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z':
			if rng.Intn(2) == 1 {
				b[i] = c - 'a' + 'A'
			}
		case c >= 'A' && c <= 'Z':
			if rng.Intn(2) == 1 {
				b[i] = c - 'A' + 'a'
			}
		}
	}
	return dnswire.Name(b)
}
