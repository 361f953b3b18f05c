package packet

import (
	"encoding/binary"
	"net/netip"
)

// BuildUDP serializes a UDP datagram inside the appropriate IP version for
// the given addresses. ttl is used as the IPv4 TTL or IPv6 hop limit.
func BuildUDP(src, dst netip.Addr, srcPort, dstPort uint16, ttl uint8, payload []byte) ([]byte, error) {
	raw, seg, err := frame(src, dst, IPProtoUDP, ttl, udpHeaderLen+len(payload))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(seg[0:2], srcPort)
	binary.BigEndian.PutUint16(seg[2:4], dstPort)
	binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
	copy(seg[udpHeaderLen:], payload)
	sum := segmentSum(src, dst, IPProtoUDP, seg)
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(seg[6:8], sum)
	return raw, nil
}

// BuildTCP serializes a TCP segment inside the appropriate IP version.
// Options are written in order and padded with end-of-options to a
// 4-byte boundary.
func BuildTCP(src, dst netip.Addr, tcp *TCP, ttl uint8, payload []byte) ([]byte, error) {
	optLen := 0
	for _, o := range tcp.Options {
		optLen += o.wireLen()
	}
	hdrLen := tcpMinLen + (optLen+3)&^3
	if hdrLen > 60 {
		return nil, decodeErr("TCP", "options too long")
	}
	raw, seg, err := frame(src, dst, IPProtoTCP, ttl, hdrLen+len(payload))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(seg[0:2], tcp.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], tcp.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], tcp.Seq)
	binary.BigEndian.PutUint32(seg[8:12], tcp.Ack)
	seg[12] = uint8(hdrLen/4) << 4
	seg[13] = tcp.flags()
	binary.BigEndian.PutUint16(seg[14:16], tcp.Window)
	opts := seg[tcpMinLen:hdrLen]
	for _, o := range tcp.Options {
		n := o.wireLen()
		opts[0] = byte(o.Kind)
		if n > 1 {
			opts[1] = byte(n)
			copy(opts[2:], o.Data)
		}
		opts = opts[n:]
	}
	copy(seg[hdrLen:], payload)
	binary.BigEndian.PutUint16(seg[16:18], segmentSum(src, dst, IPProtoTCP, seg))
	return raw, nil
}

// frame allocates a datagram carrying a segLen-byte transport segment
// from src to dst, writes its IP header (IPv4 with don't-fragment set
// when both addresses are IPv4, IPv6 otherwise), and returns the
// datagram and the zeroed segment within it.
func frame(src, dst netip.Addr, proto, ttl uint8, segLen int) (raw, seg []byte, err error) {
	switch {
	case !src.IsValid() || !dst.IsValid():
		return nil, nil, decodeErr("IP", "invalid address")
	case src.Is4() != dst.Is4():
		return nil, nil, decodeErr("IP", "mixed address families")
	case src.Is4():
		if ipv4MinLen+segLen > 0xffff {
			return nil, nil, decodeErr("IPv4", "datagram too long")
		}
		raw = make([]byte, ipv4MinLen+segLen)
		raw[0] = 4<<4 | ipv4MinLen/4
		binary.BigEndian.PutUint16(raw[2:4], uint16(len(raw)))
		binary.BigEndian.PutUint16(raw[6:8], 0x4000) // don't fragment
		raw[8], raw[9] = ttl, proto
		s, d := src.As4(), dst.As4()
		copy(raw[12:16], s[:])
		copy(raw[16:20], d[:])
		binary.BigEndian.PutUint16(raw[10:12], Checksum(raw[:ipv4MinLen]))
		return raw, raw[ipv4MinLen:], nil
	default:
		if segLen > 0xffff {
			return nil, nil, decodeErr("IPv6", "payload too long")
		}
		raw = make([]byte, ipv6HeaderLen+segLen)
		raw[0] = 6 << 4
		binary.BigEndian.PutUint16(raw[4:6], uint16(segLen))
		raw[6], raw[7] = proto, ttl
		s, d := src.As16(), dst.As16()
		copy(raw[8:24], s[:])
		copy(raw[24:40], d[:])
		return raw, raw[ipv6HeaderLen:], nil
	}
}
