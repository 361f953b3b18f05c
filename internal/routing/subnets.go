package routing

import (
	"encoding/binary"
	"net/netip"
)

// Rng is the draw interface RandomHostAddr consumes. Callers pass a
// generator derived from the causal identity of the choice (in this
// codebase, detrand.Rand keyed on seed and ASN) rather than a shared
// sequential stream, so host selection is independent of call order.
type Rng interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// SubnetBits are the subdivision sizes the paper uses when generating
// spoofed sources: /24 for IPv4 and /64 for IPv6 (§3.2).
const (
	V4SubnetBits = 24
	V6SubnetBits = 64
)

// SubnetOf returns the enclosing /24 (IPv4) or /64 (IPv6) of addr.
//
//doors:hotpath
func SubnetOf(addr netip.Addr) netip.Prefix {
	p, _ := addr.Prefix(subnetBitsFor(addr))
	return p
}

// EnumerateSubnets splits prefix into its /24s (IPv4) or /64s (IPv6) and
// returns up to max of them, in address order. A prefix smaller than the
// subnet size yields its single enclosing subnet.
func EnumerateSubnets(prefix netip.Prefix, max int) []netip.Prefix {
	out := make([]netip.Prefix, SubnetCount(prefix, max))
	for i := range out {
		out[i] = NthSubnet(prefix, i)
	}
	return out
}

// SubnetCount reports how many subnets EnumerateSubnets(prefix, max)
// returns, without building them.
func SubnetCount(prefix netip.Prefix, max int) int {
	subnetBits := subnetBitsFor(prefix.Addr())
	if prefix.Bits() >= subnetBits {
		return 1
	}
	count := 1 << (subnetBits - prefix.Bits())
	if max > 0 && count > max {
		count = max
	}
	return count
}

// NthSubnet returns the i-th subnet of prefix in address order: element
// i of EnumerateSubnets(prefix, max) for any i below
// SubnetCount(prefix, max).
func NthSubnet(prefix netip.Prefix, i int) netip.Prefix {
	addr := prefix.Addr()
	subnetBits := subnetBitsFor(addr)
	keep := min(prefix.Bits(), subnetBits)
	if addr.Is4() {
		a := addr.As4()
		v := binary.BigEndian.Uint32(a[:])
		v &^= uint32(1)<<(32-keep) - 1
		v += uint32(i) << (32 - subnetBits)
		binary.BigEndian.PutUint32(a[:], v)
		return netip.PrefixFrom(netip.AddrFrom4(a), subnetBits)
	}
	a := addr.As16()
	hi := binary.BigEndian.Uint64(a[0:8])
	hi &^= uint64(1)<<(64-keep) - 1
	hi += uint64(i) << (64 - subnetBits) // subnetBits <= 64
	binary.BigEndian.PutUint64(a[0:8], hi)
	clear(a[8:])
	return netip.PrefixFrom(netip.AddrFrom16(a), subnetBits)
}

func subnetBitsFor(addr netip.Addr) int {
	if addr.Is4() {
		return V4SubnetBits
	}
	return V6SubnetBits
}

// AddrAt returns the host address at the given offset within subnet.
func AddrAt(subnet netip.Prefix, offset uint64) netip.Addr {
	base := subnet.Masked().Addr()
	if base.Is4() {
		a := base.As4()
		v := binary.BigEndian.Uint32(a[:]) + uint32(offset)
		binary.BigEndian.PutUint32(a[:], v)
		return netip.AddrFrom4(a)
	}
	a := base.As16()
	lo := binary.BigEndian.Uint64(a[8:16]) + offset
	binary.BigEndian.PutUint64(a[8:16], lo)
	return netip.AddrFrom16(a)
}

// RandomHostAddr picks a usable host address within subnet using rng,
// following the paper's selection rules (§3.2): in an IPv4 /24 the first
// and last addresses are excluded (reserved network/broadcast); in an
// IPv6 /64 selection is limited to offsets 2..99 (the first two are often
// router addresses).
func RandomHostAddr(subnet netip.Prefix, rng Rng) netip.Addr {
	if subnet.Addr().Is4() {
		hostBits := 32 - subnet.Bits()
		size := uint64(1) << hostBits
		if size <= 2 {
			return subnet.Addr()
		}
		off := 1 + uint64(rng.Int63n(int64(size-2)))
		return AddrAt(subnet, off)
	}
	off := 2 + uint64(rng.Intn(98))
	return AddrAt(subnet, off)
}

// Offset reports addr's offset within its enclosing subnet.
func Offset(addr netip.Addr) uint64 {
	if addr.Is4() {
		a := addr.As4()
		return uint64(binary.BigEndian.Uint32(a[:]) & ((1 << (32 - V4SubnetBits)) - 1))
	}
	a := addr.As16()
	return binary.BigEndian.Uint64(a[8:16])
}
