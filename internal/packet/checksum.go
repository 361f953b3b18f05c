package packet

import (
	"encoding/binary"
	"net/netip"
)

// onesSum accumulates data into a ones'-complement running sum.
func onesSum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// foldSum folds a ones'-complement running sum into a 16-bit checksum.
func foldSum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Checksum computes the Internet checksum (RFC 1071) of data.
func Checksum(data []byte) uint16 { return foldSum(onesSum(0, data)) }

// segmentSum computes the UDP/TCP checksum of segment over the IPv4 or
// IPv6 pseudo-header. With the segment's checksum field zeroed it is the
// value to send; with the received field in place it is zero for an
// intact segment (RFC 1071 §2).
func segmentSum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	sum := uint32(proto) + uint32(len(segment))
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		sum = onesSum(onesSum(sum, s[:]), d[:])
	} else {
		s, d := src.As16(), dst.As16()
		sum = onesSum(onesSum(sum, s[:]), d[:])
	}
	return foldSum(onesSum(sum, segment))
}
