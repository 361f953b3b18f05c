package packet

import (
	"encoding/binary"
	"net/netip"
)

// Decode parses a wire-format datagram, sniffing the IP version from the
// first nibble. Transport checksums are verified against the IP
// pseudo-header. Data and Raw alias raw.
func Decode(raw []byte) (*Packet, error) {
	if len(raw) == 0 {
		return nil, decodeErr("IP", "empty packet")
	}
	// One allocation holds the packet and every header it can point to.
	d := new(struct {
		Packet
		v4  IPv4
		v6  IPv6
		udp UDP
		tcp TCP
	})
	p := &d.Packet
	p.Raw = raw
	var (
		proto uint8
		seg   []byte
		err   error
	)
	switch raw[0] >> 4 {
	case 4:
		p.V4 = &d.v4
		proto, seg, err = decodeIPv4(p.V4, raw)
	case 6:
		p.V6 = &d.v6
		proto, seg, err = decodeIPv6(p.V6, raw)
	default:
		return nil, decodeErr("IP", "unknown IP version")
	}
	if err != nil {
		return nil, err
	}
	switch proto {
	case IPProtoUDP:
		p.UDP = &d.udp
		p.Data, err = decodeUDP(p.UDP, p.Src(), p.Dst(), seg)
	case IPProtoTCP:
		p.TCP = &d.tcp
		p.Data, err = decodeTCP(p.TCP, p.Src(), p.Dst(), seg)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// decodeIPv4 parses an IPv4 header, verifying its checksum, and returns
// the transport protocol and the segment the header's total length
// bounds.
func decodeIPv4(ip *IPv4, data []byte) (uint8, []byte, error) {
	if len(data) < ipv4MinLen {
		return 0, nil, decodeErr("IPv4", "truncated header")
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4MinLen || ihl > len(data) {
		return 0, nil, decodeErr("IPv4", "bad IHL")
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return 0, nil, decodeErr("IPv4", "bad total length")
	}
	if Checksum(data[:ihl]) != 0 {
		return 0, nil, decodeErr("IPv4", "header checksum mismatch")
	}
	*ip = IPv4{
		TOS:      data[1],
		ID:       binary.BigEndian.Uint16(data[4:6]),
		DontFrag: binary.BigEndian.Uint16(data[6:8])&0x4000 != 0,
		TTL:      data[8],
		Protocol: data[9],
		Src:      netip.AddrFrom4([4]byte(data[12:16])),
		Dst:      netip.AddrFrom4([4]byte(data[16:20])),
	}
	return ip.Protocol, data[ihl:total], nil
}

// decodeIPv6 parses an IPv6 fixed header and returns the transport
// protocol and the segment the header's payload length bounds.
func decodeIPv6(ip *IPv6, data []byte) (uint8, []byte, error) {
	if len(data) < ipv6HeaderLen {
		return 0, nil, decodeErr("IPv6", "truncated header")
	}
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	if ipv6HeaderLen+plen > len(data) {
		return 0, nil, decodeErr("IPv6", "bad payload length")
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	*ip = IPv6{
		TrafficClass: uint8(vtf >> 20),
		FlowLabel:    vtf & 0xfffff,
		NextHeader:   data[6],
		HopLimit:     data[7],
		Src:          netip.AddrFrom16([16]byte(data[8:24])),
		Dst:          netip.AddrFrom16([16]byte(data[24:40])),
	}
	return ip.NextHeader, data[ipv6HeaderLen : ipv6HeaderLen+plen], nil
}

// decodeUDP parses a UDP header, verifying the checksum unless the
// sender left it zero (none computed, RFC 768), and returns the payload.
func decodeUDP(u *UDP, src, dst netip.Addr, seg []byte) ([]byte, error) {
	if len(seg) < udpHeaderLen {
		return nil, decodeErr("UDP", "truncated header")
	}
	length := int(binary.BigEndian.Uint16(seg[4:6]))
	if length < udpHeaderLen || length > len(seg) {
		return nil, decodeErr("UDP", "bad length")
	}
	seg = seg[:length]
	if binary.BigEndian.Uint16(seg[6:8]) != 0 && segmentSum(src, dst, IPProtoUDP, seg) != 0 {
		return nil, decodeErr("UDP", "checksum mismatch")
	}
	u.SrcPort = binary.BigEndian.Uint16(seg[0:2])
	u.DstPort = binary.BigEndian.Uint16(seg[2:4])
	return seg[udpHeaderLen:], nil
}

// decodeTCP parses a TCP header and its options, verifying the
// checksum, and returns the payload.
func decodeTCP(t *TCP, src, dst netip.Addr, seg []byte) ([]byte, error) {
	if len(seg) < tcpMinLen {
		return nil, decodeErr("TCP", "truncated header")
	}
	dataOff := int(seg[12]>>4) * 4
	if dataOff < tcpMinLen || dataOff > len(seg) {
		return nil, decodeErr("TCP", "bad data offset")
	}
	if segmentSum(src, dst, IPProtoTCP, seg) != 0 {
		return nil, decodeErr("TCP", "checksum mismatch")
	}
	t.SrcPort = binary.BigEndian.Uint16(seg[0:2])
	t.DstPort = binary.BigEndian.Uint16(seg[2:4])
	t.Seq = binary.BigEndian.Uint32(seg[4:8])
	t.Ack = binary.BigEndian.Uint32(seg[8:12])
	t.setFlags(seg[13])
	t.Window = binary.BigEndian.Uint16(seg[14:16])
	opts := seg[tcpMinLen:dataOff]
	for len(opts) > 0 {
		kind := TCPOptionKind(opts[0])
		switch kind {
		case TCPOptEndOfOptions:
			opts = nil
		case TCPOptNop:
			t.Options = append(t.Options, TCPOption{Kind: kind})
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return nil, decodeErr("TCP", "truncated option")
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return nil, decodeErr("TCP", "bad option length")
			}
			t.Options = append(t.Options, TCPOption{
				Kind: kind,
				Data: append([]byte(nil), opts[2:olen]...),
			})
			opts = opts[olen:]
		}
	}
	return seg[dataOff:], nil
}
