// Package packet implements the wire formats carried on simulated links:
// IPv4, IPv6, UDP, and TCP. BuildUDP and BuildTCP write a whole
// datagram — IP header, transport header, payload and checksums — into
// one slice sized up front; Decode parses the IP header and then the
// transport header straight from the received bytes, verifying every
// checksum in place.
//
// Packets inside the simulator are real bytes. Border filters, kernels,
// and endpoints all parse the same serialized representation, so the
// code paths exercised are the ones a raw-socket implementation would
// use on a real network.
package packet

import (
	"fmt"
	"net/netip"
)

// IP protocol numbers used by the simulator.
const (
	IPProtoTCP = 6
	IPProtoUDP = 17
)

const (
	ipv4MinLen    = 20
	ipv6HeaderLen = 40
	udpHeaderLen  = 8
	tcpMinLen     = 20
)

// IPv4 is an IPv4 header (RFC 791). Options are not modeled; IHL is
// always 5 on serialization and options are skipped on decode.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
}

// IPv6 is an IPv6 fixed header (RFC 8200). Extension headers are not
// modeled; NextHeader is the transport protocol directly.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// UDP is a UDP header (RFC 768).
type UDP struct {
	SrcPort, DstPort uint16
}

// Packet is a fully decoded IP datagram as seen on a simulated link.
type Packet struct {
	// Exactly one of V4/V6 is non-nil.
	V4 *IPv4
	V6 *IPv6
	// Exactly one of UDP/TCP is non-nil for transport datagrams the
	// simulator understands; both nil means an unknown protocol.
	UDP *UDP
	TCP *TCP
	// Data is the transport payload.
	Data []byte
	// Raw is the original wire representation.
	Raw []byte
}

// Src returns the network-layer source address.
func (p *Packet) Src() netip.Addr {
	if p.V4 != nil {
		return p.V4.Src
	}
	return p.V6.Src
}

// Dst returns the network-layer destination address.
func (p *Packet) Dst() netip.Addr {
	if p.V4 != nil {
		return p.V4.Dst
	}
	return p.V6.Dst
}

// IsIPv6 reports whether the packet is IPv6.
func (p *Packet) IsIPv6() bool { return p.V6 != nil }

// SrcPort returns the transport source port (0 if no transport layer).
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort
	case p.TCP != nil:
		return p.TCP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port (0 if no transport layer).
func (p *Packet) DstPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.DstPort
	case p.TCP != nil:
		return p.TCP.DstPort
	}
	return 0
}

// DecodeError reports a malformed packet, or one that cannot be built.
type DecodeError struct {
	Layer  string // "IP", "IPv4", "IPv6", "UDP" or "TCP"
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("packet: bad %s: %s", e.Layer, e.Reason)
}

func decodeErr(layer, reason string) error {
	return &DecodeError{Layer: layer, Reason: reason}
}
