package scanner

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ditl"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// probeRig is a scanner on a one-AS network: every probe target is
// unrouted, so each frame SendProbe emits is decoded and dropped
// synchronously, and the drop hook (when installed) sees its payload.
type probeRig struct {
	s    *Scanner
	host *netsim.Host
	sent [][]byte // UDP payloads seen by the drop hook
}

func newProbeRig(t testing.TB, capture bool) *probeRig {
	t.Helper()
	reg := routing.NewRegistry()
	home := &routing.AS{ASN: 64496, Prefixes: []netip.Prefix{prefix("100.96.0.0/24"), prefix("2a0f:1::/48")}}
	if err := reg.Add(home); err != nil {
		t.Fatal(err)
	}
	n := netsim.New(reg, netsim.Config{Seed: 1})
	a4, a6 := addr("100.96.0.10"), addr("2a0f:1::10")
	host, err := n.Attach("scanner", home, a4, a6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, a4, a6, reg, nil, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &probeRig{s: s, host: host}
	if capture {
		n.SetDropHook(func(_ time.Duration, reason netsim.DropReason, pkt *packet.Packet, _ *routing.AS) {
			if reason != netsim.DropNoRoute || pkt == nil || pkt.UDP == nil {
				t.Fatalf("unexpected drop %v of %v", reason, pkt)
			}
			r.sent = append(r.sent, append([]byte(nil), pkt.Data...))
		})
	}
	return r
}

// TestSendProbeMatchesPack pins SendProbe's wire-form query to the
// message dnswire.NewQuery(txn, EncodeQName(...), TypeA).Pack() builds,
// byte for byte, over both families, every probe kind and random send
// times and ASNs — and pins that a name Pack refuses sends nothing and
// counts nothing.
func TestSendProbeMatchesPack(t *testing.T) {
	r := newProbeRig(t, true)
	s := r.s
	rng := rand.New(rand.NewSource(9))
	pairs := [][2]netip.Addr{
		{addr("203.0.113.7"), addr("198.51.100.53")},
		{addr("100.96.0.10"), addr("8.8.4.4")},
		{addr("2001:db8::1"), addr("2a00:5:0:beef::53")},
		{addr("::1"), addr("2600::")},
		{addr("fc00::10"), addr("2a01:4f8:ffff:ffff:ffff:ffff:ffff:fffe")},
	}
	keywords := []string{
		"x1", "Kw9", "a.b", // mixed case and a two-label keyword are packed as given
		strings.Repeat("k", 63),                // longest label Pack accepts
		strings.Repeat("k", 64),                // label too long
		"a..b",                                 // empty label
		strings.Repeat("abcdefghi.", 22),       // each label fine, name over 255 (trailing dot: empty label too)
		strings.Repeat("abcdefghi.", 21) + "z", // each label fine, name over 255
	}
	refused := 0
	for _, kw := range keywords {
		s.Cfg.Keyword = kw
		for _, pair := range pairs {
			for _, kind := range []ProbeKind{ProbeMain, ProbeV4, ProbeV6, ProbeTC} {
				now := time.Duration(rng.Int63n(1 << uint(rng.Intn(63))))
				tgt := Target{Addr: pair[1], ASN: routing.ASN(rng.Uint32())}
				label := fmt.Sprintf("kw %q src %v dst %v kind %v ts %d asn %d", kw, pair[0], tgt.Addr, kind, now, tgt.ASN)

				txn, _ := s.probeIDs(now, pair[0], tgt.Addr, kind)
				want, err := dnswire.NewQuery(txn, EncodeQName(now, pair[0], tgt.Addr, tgt.ASN, kw, kind), dnswire.TypeA).Pack()
				before, sentBefore := s.Stats.ProbesSent, len(r.sent)
				s.SendProbe(now, pair[0], tgt, kind)
				if err != nil {
					refused++
					if s.Stats.ProbesSent != before || len(r.sent) != sentBefore {
						t.Fatalf("%s: Pack refuses (%v) but SendProbe sent", label, err)
					}
					continue
				}
				if s.Stats.ProbesSent != before+1 || len(r.sent) != sentBefore+1 {
					t.Fatalf("%s: Pack accepts but SendProbe sent %d frames", label, len(r.sent)-sentBefore)
				}
				if got := r.sent[len(r.sent)-1]; !bytes.Equal(got, want) {
					t.Fatalf("%s:\nSendProbe %x\nPack      %x", label, got, want)
				}
			}
		}
	}
	if want := 4 * len(pairs) * 4; refused != want {
		t.Fatalf("%d probes refused, want %d (the four over-long or empty-label keywords)", refused, want)
	}
}

// TestSendProbeAllocs pins SendProbe's own allocations to BuildUDP's
// one frame: the name and query are written into the scanner's reused
// buffers. The network's share (decoding the frame on injection) is
// measured separately and taken off.
func TestSendProbeAllocs(t *testing.T) {
	r := newProbeRig(t, false)
	s := r.s
	src, tgt := addr("203.0.113.7"), Target{Addr: addr("198.51.100.53"), ASN: 64500}
	s.SendProbe(time.Second, src, tgt, ProbeV4) // warm the scratch buffers
	payload, err := dnswire.NewQuery(1, EncodeQName(time.Second, src, tgt.Addr, tgt.ASN, s.Cfg.Keyword, ProbeV4), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := packet.BuildUDP(src, tgt.Addr, 40000, 53, 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	network := testing.AllocsPerRun(100, func() { r.host.SendRaw(frame) })
	now := time.Second
	probe := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		s.SendProbe(now, src, tgt, ProbeV4)
	})
	if got := probe - network; got != 1 {
		t.Fatalf("SendProbe allocates %v times beyond the network's %v, want 1 (BuildUDP's frame)", got, network)
	}
}

// BenchmarkSendProbe measures one follow-up probe end to end on the
// scanner side: name, query and frame, plus the network's decode and
// drop of the unrouted target.
func BenchmarkSendProbe(b *testing.B) {
	r := newProbeRig(b, false)
	src, tgt := addr("203.0.113.7"), Target{Addr: addr("198.51.100.53"), ASN: 64500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		r.s.SendProbe(time.Duration(i), src, tgt, ProbeV4)
	}
}

// sourcesForMapScan is SourcesFor as it stood before the sorted hit-list
// index: every IPv6 target ranges over the whole V6HitList map. It is
// kept as the reference the indexed version must agree with.
func (s *Scanner) sourcesForMapScan(t Target) []netip.Addr {
	as := s.Reg.AS(t.ASN)
	v6 := t.Addr.Is6()
	rng := s.targetRand(t.Addr)
	sources := make([]netip.Addr, 0, s.Cfg.MaxOtherPrefix+4)

	own := routing.SubnetOf(t.Addr)
	var prefixes []netip.Prefix
	if v6 {
		prefixes = as.V6Prefixes()
	} else {
		prefixes = as.V4Prefixes()
	}
	var candidates []netip.Prefix
	seen := make(map[netip.Prefix]bool)
	if v6 && len(s.Cfg.V6HitList) > 0 {
		var hot []netip.Prefix
		for sub := range s.Cfg.V6HitList {
			if sub == own {
				continue
			}
			for _, p := range prefixes {
				if p.Contains(sub.Addr()) {
					hot = append(hot, sub)
					break
				}
			}
		}
		sort.Slice(hot, func(i, j int) bool { return hot[i].Addr().Less(hot[j].Addr()) })
		for _, sub := range hot {
			if !seen[sub] {
				seen[sub] = true
				candidates = append(candidates, sub)
			}
		}
	}
	for _, p := range prefixes {
		for _, sub := range routing.EnumerateSubnets(p, s.Cfg.MaxOtherPrefix+1) {
			if sub != own && !seen[sub] {
				seen[sub] = true
				candidates = append(candidates, sub)
			}
		}
	}
	for _, sub := range candidates {
		if len(sources) >= s.Cfg.MaxOtherPrefix {
			break
		}
		sources = append(sources, routing.RandomHostAddr(sub, rng))
	}
	for tries := 0; tries < 16; tries++ {
		a := routing.RandomHostAddr(own, rng)
		if a != t.Addr {
			sources = append(sources, a)
			break
		}
	}
	if v6 {
		sources = append(sources, netip.MustParseAddr("fc00::10"))
	} else {
		sources = append(sources, netip.MustParseAddr("192.168.0.10"))
	}
	sources = append(sources, t.Addr)
	if v6 {
		sources = append(sources, netip.MustParseAddr("::1"))
	} else {
		sources = append(sources, netip.MustParseAddr("127.0.0.1"))
	}
	return sources
}

// TestSourcesForMatchesMapScan checks the indexed hit-list preference
// against the map-scanning reference for every candidate target of a
// generated population, with the population's own hit list (the /64 of
// every IPv6 candidate, as the campaign derives it), seeds 1 and 2.
func TestSourcesForMatchesMapScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		pop := ditl.Generate(ditl.Params{Seed: seed, ASes: 120})
		reg := routing.NewRegistry()
		hitList := make(map[netip.Prefix]bool)
		var candidates []netip.Addr
		for _, as := range pop.ASes {
			prefixes := append(append([]netip.Prefix(nil), as.V4Prefixes...), as.V6Prefixes...)
			if err := reg.Add(&routing.AS{ASN: as.ASN, Prefixes: prefixes}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < as.NumResolvers(); k++ {
				r := as.Resolver(k)
				candidates = append(candidates, r.Addr4, r.Addr6)
			}
			candidates = append(candidates, as.DeadTargets...)
		}
		for _, a := range candidates {
			if a.Is6() {
				hitList[routing.SubnetOf(a)] = true
			}
		}
		s := NewPlanner(reg, Config{Seed: seed, V6HitList: hitList})
		for _, a := range candidates {
			if a.IsValid() {
				s.AdmitOne(a)
			}
		}
		v6 := 0
		for _, tgt := range s.Targets {
			if tgt.Addr.Is6() {
				v6++
			}
			if got, want := s.SourcesFor(tgt), s.sourcesForMapScan(tgt); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d target %v: indexed sources differ from the map scan\nindexed: %v\nmap:     %v", seed, tgt.Addr, got, want)
			}
		}
		if v6 == 0 || len(hitList) == 0 {
			t.Fatalf("seed %d: %d IPv6 targets, %d hit-list /64s: the preference is not exercised", seed, v6, len(hitList))
		}
	}
}

// TestHitListInJoinsPrefixes covers the several-prefix join: nested and
// disjoint prefixes, given in any order, yield each covered hit-list
// entry once, in address order.
func TestHitListInJoinsPrefixes(t *testing.T) {
	idx := []netip.Prefix{
		prefix("2a00:1::/64"), prefix("2a00:1:0:5::/64"), prefix("2a00:1:ff::/64"),
		prefix("2a00:2::/64"), prefix("2a00:3:0:1::/64"), prefix("2a00:3:0:2::/64"),
	}
	cases := []struct {
		prefixes []netip.Prefix
		want     []netip.Prefix
	}{
		{nil, nil},
		{[]netip.Prefix{prefix("2a00:9::/32")}, nil},
		{[]netip.Prefix{prefix("2a00:1::/48")}, idx[0:2]},
		{[]netip.Prefix{prefix("2a00:3::/32"), prefix("2a00:1::/32")}, append(idx[0:3:3], idx[4:6]...)},
		{[]netip.Prefix{prefix("2a00:1::/32"), prefix("2a00:1::/48"), prefix("2a00::/24")}, idx},
	}
	for _, c := range cases {
		if got := hitListIn(idx, c.prefixes); !slices.Equal(got, c.want) {
			t.Errorf("hitListIn(%v) = %v, want %v", c.prefixes, got, c.want)
		}
	}
}
