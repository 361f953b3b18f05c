// Package scanner implements the measurement client of §3: spoofed-
// source DNS probing of millions of candidate resolvers, real-time
// monitoring of the experimenter's authoritative logs, follow-up
// queries, and the query-name encoding that correlates the two sides.
package scanner

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/routing"
)

// Query names follow the paper's template (§3.3):
//
//	ts.src.dst.asn.kw.dns-lab.org
//
// where ts is the send timestamp (virtual nanoseconds, guaranteeing
// cache-busting uniqueness), src is the spoofed source, dst the target,
// asn the target's AS number, and kw the experiment keyword. Follow-up
// probes use the same five labels under the v4/v6/tc subzones.

// EncodeAddr renders an address as a DNS label ("v4-198-51-100-7",
// "v6-2001-db8--53").
func EncodeAddr(a netip.Addr) string {
	var b [48]byte
	return string(appendAddrLabel(b[:0], a))
}

// appendAddrLabel appends EncodeAddr(a) to buf: the family tag, then
// the address text with each '.' (IPv4) or ':' (IPv6) rewritten to '-'
// in place.
func appendAddrLabel(buf []byte, a netip.Addr) []byte {
	sep := byte(':')
	if a.Is4() {
		buf = append(buf, "v4-"...)
		sep = '.'
	} else {
		buf = append(buf, "v6-"...)
	}
	at := len(buf)
	if a.IsValid() {
		buf = a.AppendTo(buf)
	} else {
		buf = append(buf, "invalid IP"...) // a.String(); AppendTo writes nothing
	}
	for i := at; i < len(buf); i++ {
		if buf[i] == sep {
			buf[i] = '-'
		}
	}
	return buf
}

// DecodeAddr parses a label produced by EncodeAddr.
func DecodeAddr(label string) (netip.Addr, error) {
	switch {
	case strings.HasPrefix(label, "v4-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", "."))
	case strings.HasPrefix(label, "v6-"):
		return netip.ParseAddr(strings.ReplaceAll(label[3:], "-", ":"))
	default:
		return netip.Addr{}, fmt.Errorf("scanner: bad address label %q", label)
	}
}

// ProbeKind distinguishes the probe that induced an observed query.
type ProbeKind int

// Probe kinds (§3.5).
const (
	ProbeMain ProbeKind = iota // initial reachability probe
	ProbeV4                    // IPv4-only transport follow-up
	ProbeV6                    // IPv6-only transport follow-up
	ProbeTC                    // truncation (TCP) follow-up
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeMain:
		return "main"
	case ProbeV4:
		return "v4"
	case ProbeV6:
		return "v6"
	case ProbeTC:
		return "tc"
	default:
		return "?"
	}
}

// zoneFor returns the zone apex for a probe kind.
func zoneFor(kind ProbeKind) dnswire.Name {
	switch kind {
	case ProbeV4:
		return "v4.dns-lab.org"
	case ProbeV6:
		return "v6.dns-lab.org"
	case ProbeTC:
		return "tc.dns-lab.org"
	default:
		return "dns-lab.org"
	}
}

// EncodeQName builds the experiment query name.
func EncodeQName(ts time.Duration, src, dst netip.Addr, asn routing.ASN, kw string, kind ProbeKind) dnswire.Name {
	var b [128]byte
	return dnswire.Name(appendQName(b[:0], ts, src, dst, asn, kw, kind))
}

// appendQName appends the presentation form of the experiment query
// name, ts.src.dst.asn.kw.zone, to buf.
func appendQName(buf []byte, ts time.Duration, src, dst netip.Addr, asn routing.ASN, kw string, kind ProbeKind) []byte {
	buf = strconv.AppendInt(buf, int64(ts), 10)
	buf = append(buf, '.')
	buf = appendAddrLabel(buf, src)
	buf = append(buf, '.')
	buf = appendAddrLabel(buf, dst)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(asn), 10)
	buf = append(buf, '.')
	buf = append(buf, kw...)
	buf = append(buf, '.')
	buf = append(buf, zoneFor(kind)...)
	return buf
}

// appendQNameWire appends the wire form of EncodeQName(ts, src, dst,
// asn, kw, kind) to buf — length-prefixed labels and the root byte —
// without building the name as a string. It writes the presentation
// form after one placeholder byte, then turns each '.' into the next
// label's length. ok is false where packing the name would fail (an
// empty label, a label over 63 octets, a name over 255); the appended
// bytes are then garbage.
func appendQNameWire(buf []byte, ts time.Duration, src, dst netip.Addr, asn routing.ASN, kw string, kind ProbeKind) (_ []byte, ok bool) {
	start := len(buf)
	buf = append(buf, 0) // the first label's length, set below
	buf = appendQName(buf, ts, src, dst, asn, kw, kind)
	// The wire form adds the root byte to these len(buf)-start bytes.
	if len(buf)-start+1 > maxNameOctets {
		return buf, false
	}
	lenAt := start
	for i := start + 1; i <= len(buf); i++ {
		if i < len(buf) && buf[i] != '.' {
			continue
		}
		l := i - lenAt - 1
		if l == 0 || l > maxLabelOctets {
			return buf, false
		}
		buf[lenAt] = byte(l)
		lenAt = i
	}
	buf = append(buf, 0) // the root
	return buf, true
}

// RFC 1035 §3.1 limits, as dnswire's packer enforces them.
const (
	maxNameOctets  = 255 // octets of a wire-form name
	maxLabelOctets = 63  // octets of one label
)

// Decoded is a parsed experiment query name.
type Decoded struct {
	TS   time.Duration
	Src  netip.Addr
	Dst  netip.Addr
	ASN  routing.ASN
	Kw   string
	Kind ProbeKind
}

// DecodeQName parses a query name observed at the authoritative
// servers. full reports whether the name carries all five experiment
// labels; a QNAME-minimized query (e.g. "kw.dns-lab.org") decodes with
// full=false and only Kw set (when recognizable).
func DecodeQName(name dnswire.Name, kw string) (d Decoded, full bool, partial bool) {
	labels := name.Labels()
	// Find the zone suffix.
	var kind ProbeKind
	var zoneLabels int
	switch {
	case name.IsSubdomainOf("v4.dns-lab.org"):
		kind, zoneLabels = ProbeV4, 3
	case name.IsSubdomainOf("v6.dns-lab.org"):
		kind, zoneLabels = ProbeV6, 3
	case name.IsSubdomainOf("tc.dns-lab.org"):
		kind, zoneLabels = ProbeTC, 3
	case name.IsSubdomainOf("dns-lab.org"):
		kind, zoneLabels = ProbeMain, 2
	default:
		return d, false, false
	}
	d.Kind = kind
	rest := labels[:len(labels)-zoneLabels]
	if len(rest) == 0 {
		return d, false, false
	}
	// A full name has exactly ts.src.dst.asn.kw.
	if len(rest) == 5 && rest[4] == kw {
		tsv, err1 := strconv.ParseInt(rest[0], 10, 64)
		src, err2 := DecodeAddr(rest[1])
		dst, err3 := DecodeAddr(rest[2])
		asn, err4 := strconv.ParseUint(rest[3], 10, 32)
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil {
			d.TS = time.Duration(tsv)
			d.Src, d.Dst = src, dst
			d.ASN = routing.ASN(asn)
			d.Kw = kw
			return d, true, false
		}
	}
	// Partial (QNAME-minimized): the rightmost remaining label should be
	// the keyword for a recognizable experiment name.
	if rest[len(rest)-1] == kw {
		d.Kw = kw
		return d, false, true
	}
	return d, false, false
}
