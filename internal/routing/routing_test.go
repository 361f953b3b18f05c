package routing

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr     { return netip.MustParseAddr(s) }

func TestTrieLongestMatch(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("10.0.0.0/8"), 100)
	tr.Insert(mustPrefix("10.1.0.0/16"), 200)
	tr.Insert(mustPrefix("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(mustAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %v,%v want %v", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tr.Lookup(mustAddr("11.0.0.1")); ok {
		t.Error("unrouted v4 address matched")
	}
}

func TestTrieV6(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("2001:db8::/32"), 64500)
	tr.Insert(mustPrefix("2001:db8:1::/48"), 64501)
	if got, ok := tr.Lookup(mustAddr("2001:db8:1::5")); !ok || got != 64501 {
		t.Fatalf("v6 longest match = %v,%v", got, ok)
	}
	if got, ok := tr.Lookup(mustAddr("2001:db8:2::5")); !ok || got != 64500 {
		t.Fatalf("v6 covering match = %v,%v", got, ok)
	}
	if _, ok := tr.Lookup(mustAddr("2001:db9::1")); ok {
		t.Fatal("unrouted v6 address matched")
	}
}

func TestTrieFamiliesAreSeparate(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("0.0.0.0/0"), 1)
	if _, ok := tr.Lookup(mustAddr("2001:db8::1")); ok {
		t.Fatal("v4 default route matched a v6 address")
	}
	tr.Insert(mustPrefix("::/0"), 2)
	if got, _ := tr.Lookup(mustAddr("1.2.3.4")); got != 1 {
		t.Fatal("v6 default route shadowed v4")
	}
}

func TestTrieExactReplacement(t *testing.T) {
	var tr Trie
	tr.Insert(mustPrefix("192.0.2.0/24"), 7)
	tr.Insert(mustPrefix("192.0.2.0/24"), 8)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if got, _ := tr.Lookup(mustAddr("192.0.2.1")); got != 8 {
		t.Fatalf("Lookup = %v, want replacement 8", got)
	}
}

func TestRegistryOrigin(t *testing.T) {
	r := NewRegistry()
	as1 := &AS{ASN: 64500, Prefixes: []netip.Prefix{mustPrefix("198.51.100.0/24"), mustPrefix("2001:db8:100::/48")}}
	as2 := &AS{ASN: 64501, Prefixes: []netip.Prefix{mustPrefix("203.0.113.0/24")}}
	if err := r.Add(as1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(as2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&AS{ASN: 64500}); err == nil {
		t.Fatal("duplicate ASN accepted")
	}
	if got := r.OriginOf(mustAddr("198.51.100.50")); got != as1 {
		t.Fatalf("OriginOf v4 = %v", got)
	}
	if got := r.OriginOf(mustAddr("2001:db8:100::9")); got != as1 {
		t.Fatalf("OriginOf v6 = %v", got)
	}
	if r.OriginOf(mustAddr("8.8.8.8")) != nil {
		t.Fatal("unrouted address has origin")
	}
	if !r.Routed(mustAddr("203.0.113.1")) || r.Routed(mustAddr("9.9.9.9")) {
		t.Fatal("Routed misreports")
	}
	asns := r.ASNs()
	if len(asns) != 2 || asns[0] != 64500 || asns[1] != 64501 {
		t.Fatalf("ASNs = %v", asns)
	}
}

func TestASOriginatesAndFamilies(t *testing.T) {
	as := &AS{ASN: 1, Prefixes: []netip.Prefix{
		mustPrefix("198.51.100.0/24"), mustPrefix("192.0.2.0/25"), mustPrefix("2001:db8::/40"),
	}}
	if !as.Originates(mustAddr("192.0.2.5")) {
		t.Fatal("Originates false negative")
	}
	if as.Originates(mustAddr("192.0.2.200")) {
		t.Fatal("Originates false positive outside /25")
	}
	if len(as.V4Prefixes()) != 2 || len(as.V6Prefixes()) != 1 {
		t.Fatalf("family split: %d v4, %d v6", len(as.V4Prefixes()), len(as.V6Prefixes()))
	}
}

func TestSpecialPurpose(t *testing.T) {
	special := []string{
		"10.1.2.3", "192.168.0.10", "172.16.5.5", "127.0.0.1", "169.254.1.1",
		"224.0.0.5", "255.255.255.255", "100.64.0.1", "198.18.0.1",
		"::1", "fc00::10", "fe80::1", "ff02::1", "2001:db8::1", "2002::1",
	}
	for _, s := range special {
		if !IsSpecialPurpose(mustAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = false", s)
		}
	}
	public := []string{"8.8.8.8", "198.51.99.1", "2600::1", "2a00::1"}
	for _, s := range public {
		if IsSpecialPurpose(mustAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = true", s)
		}
	}

	// IPv4-mapped addresses are not Is4: they meet the IPv6 list, where
	// ::ffff:0:0/96 marks them special whatever IPv4 address they carry.
	// The unspecified address is special; the zero Addr is not.
	for _, s := range []string{"::ffff:8.8.8.8", "::ffff:10.0.0.1", "::"} {
		if !IsSpecialPurpose(mustAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = false", s)
		}
	}
	if IsSpecialPurpose(netip.Addr{}) {
		t.Error("IsSpecialPurpose(zero Addr) = true")
	}

	// Each block's first and last address is special, and the address
	// just outside either border is special exactly when another block
	// covers it: the family-split scan agrees with a scan of every
	// block of both families.
	all := append(append([]netip.Prefix(nil), specialV4...), specialV6...)
	anyContains := func(a netip.Addr) bool {
		for _, p := range all {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	for _, p := range all {
		first := p.Masked().Addr()
		last := lastAddr(p)
		for _, a := range []netip.Addr{first, last} {
			if !IsSpecialPurpose(a) {
				t.Errorf("%v: border %v not special", p, a)
			}
		}
		for _, a := range []netip.Addr{first.Prev(), last.Next()} {
			if a.IsValid() && IsSpecialPurpose(a) != anyContains(a) {
				t.Errorf("%v: outside neighbour %v: special = %v, want %v", p, a, IsSpecialPurpose(a), anyContains(a))
			}
		}
	}
}

// lastAddr returns the highest address in p.
func lastAddr(p netip.Prefix) netip.Addr {
	p = p.Masked()
	b := p.Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

func TestIsPrivateAndLoopback(t *testing.T) {
	if !IsPrivate(mustAddr("192.168.0.10")) || !IsPrivate(mustAddr("fc00::10")) {
		t.Fatal("paper's private spoof sources must be private")
	}
	if IsPrivate(mustAddr("8.8.8.8")) || IsPrivate(mustAddr("2600::1")) {
		t.Fatal("public address classified private")
	}
	if !IsLoopback(mustAddr("127.0.0.1")) || !IsLoopback(mustAddr("::1")) {
		t.Fatal("loopback misclassified")
	}
}

func TestEnumerateSubnetsV4(t *testing.T) {
	subs := EnumerateSubnets(mustPrefix("198.51.0.0/22"), 0)
	if len(subs) != 4 {
		t.Fatalf("a /22 splits into %d /24s, want 4", len(subs))
	}
	if subs[0] != mustPrefix("198.51.0.0/24") || subs[3] != mustPrefix("198.51.3.0/24") {
		t.Fatalf("subnets = %v", subs)
	}
	// A /24 or smaller yields its enclosing /24.
	subs = EnumerateSubnets(mustPrefix("198.51.100.128/25"), 0)
	if len(subs) != 1 || subs[0] != mustPrefix("198.51.100.0/24") {
		t.Fatalf("small prefix subnets = %v", subs)
	}
}

func TestEnumerateSubnetsCap(t *testing.T) {
	subs := EnumerateSubnets(mustPrefix("10.0.0.0/8"), 97)
	if len(subs) != 97 {
		t.Fatalf("cap: got %d subnets, want 97 (the paper's other-prefix cap)", len(subs))
	}
}

func TestEnumerateSubnetsV6(t *testing.T) {
	subs := EnumerateSubnets(mustPrefix("2001:db8:0:4::/62"), 0)
	if len(subs) != 4 {
		t.Fatalf("a /62 splits into %d /64s, want 4", len(subs))
	}
	if subs[1] != mustPrefix("2001:db8:0:5::/64") {
		t.Fatalf("subnets = %v", subs)
	}
}

// steppedSubnets is EnumerateSubnets as it stood before the indexed
// form: step from the masked prefix one subnet at a time.
func steppedSubnets(prefix netip.Prefix, max int) []netip.Prefix {
	subnetBits := V6SubnetBits
	if prefix.Addr().Is4() {
		subnetBits = V4SubnetBits
	}
	if prefix.Bits() >= subnetBits {
		p, _ := prefix.Addr().Prefix(subnetBits)
		return []netip.Prefix{p}
	}
	count := 1 << (subnetBits - prefix.Bits())
	if max > 0 && count > max {
		count = max
	}
	out := make([]netip.Prefix, 0, count)
	cur := prefix.Masked().Addr()
	for i := 0; i < count; i++ {
		p, _ := cur.Prefix(subnetBits)
		out = append(out, p)
		if cur.Is4() {
			a := cur.As4()
			binary.BigEndian.PutUint32(a[:], binary.BigEndian.Uint32(a[:])+1<<(32-subnetBits))
			cur = netip.AddrFrom4(a)
		} else {
			a := cur.As16()
			binary.BigEndian.PutUint64(a[0:8], binary.BigEndian.Uint64(a[0:8])+1<<(64-subnetBits))
			cur = netip.AddrFrom16(a)
		}
	}
	return out
}

// TestEnumerateSubnetsMatchesStepping pins SubnetCount, NthSubnet and
// EnumerateSubnets against the stepping enumeration for every prefix
// length, unmasked host bits included.
func TestEnumerateSubnetsMatchesStepping(t *testing.T) {
	var prefixes []netip.Prefix
	for bits := 8; bits <= 32; bits++ {
		prefixes = append(prefixes, netip.PrefixFrom(mustAddr("198.51.100.77"), bits))
	}
	for bits := 40; bits <= 128; bits += 4 {
		prefixes = append(prefixes, netip.PrefixFrom(mustAddr("2001:db8:aa:bb:1:2:3:4"), bits))
	}
	for _, p := range prefixes {
		for _, max := range []int{0, 1, 8, 97} {
			subnetBits := V4SubnetBits
			if p.Addr().Is6() {
				subnetBits = V6SubnetBits
			}
			if max == 0 && subnetBits-p.Bits() > 8 {
				continue // keep the uncapped enumerations small
			}
			want := steppedSubnets(p, max)
			if n := SubnetCount(p, max); n != len(want) {
				t.Fatalf("SubnetCount(%v, %d) = %d, want %d", p, max, n, len(want))
			}
			got := EnumerateSubnets(p, max)
			for i := range want {
				if got[i] != want[i] || NthSubnet(p, i) != want[i] {
					t.Fatalf("%v max %d: subnet %d = %v / %v, want %v", p, max, i, got[i], NthSubnet(p, i), want[i])
				}
			}
		}
	}
}

func TestSubnetOf(t *testing.T) {
	if SubnetOf(mustAddr("198.51.100.77")) != mustPrefix("198.51.100.0/24") {
		t.Fatal("v4 SubnetOf wrong")
	}
	if SubnetOf(mustAddr("2001:db8:1:2::77")) != mustPrefix("2001:db8:1:2::/64") {
		t.Fatal("v6 SubnetOf wrong")
	}
}

func TestRandomHostAddrRespectsReservedV4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sub := mustPrefix("198.51.100.0/24")
	for i := 0; i < 2000; i++ {
		a := RandomHostAddr(sub, rng)
		if !sub.Contains(a) {
			t.Fatalf("address %v outside subnet", a)
		}
		off := Offset(a)
		if off == 0 || off == 255 {
			t.Fatalf("reserved offset %d selected (network/broadcast)", off)
		}
	}
}

func TestRandomHostAddrV6Window(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sub := mustPrefix("2001:db8:9::/64")
	for i := 0; i < 2000; i++ {
		a := RandomHostAddr(sub, rng)
		off := Offset(a)
		if off < 2 || off > 99 {
			t.Fatalf("v6 offset %d outside the paper's 2..99 window", off)
		}
	}
}

func TestAddrAt(t *testing.T) {
	if AddrAt(mustPrefix("198.51.100.0/24"), 10) != mustAddr("198.51.100.10") {
		t.Fatal("v4 AddrAt wrong")
	}
	if AddrAt(mustPrefix("2001:db8::/64"), 10) != mustAddr("2001:db8::a") {
		t.Fatal("v6 AddrAt wrong")
	}
}

func TestQuickTrieMatchesLinearScan(t *testing.T) {
	// Property: trie lookup == brute-force longest-prefix scan.
	prefixes := []netip.Prefix{
		mustPrefix("10.0.0.0/8"), mustPrefix("10.64.0.0/10"), mustPrefix("10.64.1.0/24"),
		mustPrefix("172.16.0.0/12"), mustPrefix("192.0.2.0/24"), mustPrefix("0.0.0.0/2"),
	}
	var tr Trie
	for i, p := range prefixes {
		tr.Insert(p, ASN(i+1))
	}
	linear := func(a netip.Addr) (ASN, bool) {
		best, bestBits, ok := ASN(0), -1, false
		for i, p := range prefixes {
			if p.Contains(a) && p.Bits() > bestBits {
				best, bestBits, ok = ASN(i+1), p.Bits(), true
			}
		}
		return best, ok
	}
	f := func(raw uint32) bool {
		var b [4]byte
		b[0] = byte(raw >> 24)
		b[1] = byte(raw >> 16)
		b[2] = byte(raw >> 8)
		b[3] = byte(raw)
		a := netip.AddrFrom4(b)
		g1, ok1 := tr.Lookup(a)
		g2, ok2 := linear(a)
		return ok1 == ok2 && (!ok1 || g1 == g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubnetContainsItsAddrs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(hi uint16, lo uint16) bool {
		base := netip.AddrFrom4([4]byte{byte(hi >> 8), byte(hi), byte(lo >> 8), 0})
		sub, _ := base.Prefix(24)
		a := RandomHostAddr(sub, rng)
		return sub.Contains(a) && SubnetOf(a) == sub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	var tr Trie
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		p, _ := a.Prefix(8 + rng.Intn(17))
		tr.Insert(p, ASN(i))
	}
	b.ReportAllocs()
	addr := mustAddr("100.20.30.40")
	for i := 0; i < b.N; i++ {
		tr.Lookup(addr)
	}
}
