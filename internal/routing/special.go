package routing

import "net/netip"

// specialV4 and specialV6 list the IANA special-purpose registries
// (RFC 6890) relevant to the experiment, one list per address family:
// addresses in these blocks are excluded from targeting (§3.1) and are
// treated as bogons by borders that filter them.
var (
	specialV4 = parsePrefixes(
		// IPv4 (RFC 6890 and successors)
		"0.0.0.0/8",          // "this network"
		"10.0.0.0/8",         // private
		"100.64.0.0/10",      // shared address space (CGN)
		"127.0.0.0/8",        // loopback
		"169.254.0.0/16",     // link local
		"172.16.0.0/12",      // private
		"192.0.0.0/24",       // IETF protocol assignments
		"192.0.2.0/24",       // TEST-NET-1
		"192.88.99.0/24",     // 6to4 relay anycast
		"192.168.0.0/16",     // private
		"198.18.0.0/15",      // benchmarking
		"198.51.100.0/24",    // TEST-NET-2
		"203.0.113.0/24",     // TEST-NET-3
		"224.0.0.0/4",        // multicast
		"240.0.0.0/4",        // reserved
		"255.255.255.255/32", // limited broadcast
	)
	specialV6 = parsePrefixes(
		"::1/128",       // loopback
		"::/128",        // unspecified
		"::ffff:0:0/96", // IPv4-mapped
		"64:ff9b::/96",  // IPv4-IPv6 translation
		"100::/64",      // discard-only
		"2001::/23",     // IETF protocol assignments
		"2001:db8::/32", // documentation
		"2002::/16",     // 6to4
		"fc00::/7",      // unique local
		"fe80::/10",     // link local
		"ff00::/8",      // multicast
	)
)

func parsePrefixes(raw ...string) []netip.Prefix {
	out := make([]netip.Prefix, len(raw))
	for i, s := range raw {
		out[i] = netip.MustParsePrefix(s)
	}
	return out
}

// IsSpecialPurpose reports whether addr falls in an IANA special-purpose
// block (RFC 6890): private, loopback, documentation, multicast, etc.
// Only the address's own family is scanned: a prefix never contains an
// address of the other family, and an IPv4-mapped IPv6 address (not
// Is4) meets the IPv6 list, where ::ffff:0:0/96 catches it.
//
//doors:hotpath
func IsSpecialPurpose(addr netip.Addr) bool {
	list := specialV6
	if addr.Is4() {
		list = specialV4
	}
	for _, p := range list {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// uniqueLocal is fc00::/7, parsed once: IsPrivate sits on the scanner
// categorization hot path and must not re-parse the prefix per call.
var uniqueLocal = netip.MustParsePrefix("fc00::/7")

// IsPrivate reports whether addr is RFC 1918 private or IPv6 unique-local
// space — the category the paper spoofs as "private or unique local".
//
//doors:hotpath
func IsPrivate(addr netip.Addr) bool {
	return addr.IsPrivate() || (addr.Is6() && uniqueLocal.Contains(addr))
}

// IsLoopback reports whether addr is the IPv4 or IPv6 loopback.
//
//doors:hotpath
func IsLoopback(addr netip.Addr) bool { return addr.IsLoopback() }
