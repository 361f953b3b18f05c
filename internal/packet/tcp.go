package packet

import "encoding/binary"

// TCPOptionKind identifies a TCP option.
type TCPOptionKind uint8

// TCP option kinds used by the OS fingerprinting models.
const (
	TCPOptEndOfOptions TCPOptionKind = 0
	TCPOptNop          TCPOptionKind = 1
	TCPOptMSS          TCPOptionKind = 2
	TCPOptWindowScale  TCPOptionKind = 3
	TCPOptSACKPermit   TCPOptionKind = 4
	TCPOptTimestamps   TCPOptionKind = 8
)

// TCPOption is a single TCP option as it appears on the wire.
type TCPOption struct {
	Kind TCPOptionKind
	Data []byte // option data, excluding kind and length bytes
}

// wireLen is the option's length on the wire: one byte for
// end-of-options and no-operation, kind and length bytes plus Data for
// the rest.
func (o TCPOption) wireLen() int {
	if o.Kind == TCPOptEndOfOptions || o.Kind == TCPOptNop {
		return 1
	}
	return 2 + len(o.Data)
}

// TCP is a TCP header (RFC 793) with options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	SYN, ACK, FIN    bool
	RST, PSH, URG    bool
	Window           uint16
	Options          []TCPOption
}

// Option returns the first option of the given kind and whether it exists.
func (t *TCP) Option(kind TCPOptionKind) (TCPOption, bool) {
	for _, o := range t.Options {
		if o.Kind == kind {
			return o, true
		}
	}
	return TCPOption{}, false
}

// MSS returns the maximum-segment-size option value, if present.
func (t *TCP) MSS() (uint16, bool) {
	o, ok := t.Option(TCPOptMSS)
	if !ok || len(o.Data) != 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(o.Data), true
}

// WindowScale returns the window-scale option value, if present.
func (t *TCP) WindowScale() (uint8, bool) {
	o, ok := t.Option(TCPOptWindowScale)
	if !ok || len(o.Data) != 1 {
		return 0, false
	}
	return o.Data[0], true
}

func (t *TCP) flags() uint8 {
	var f uint8
	if t.FIN {
		f |= 0x01
	}
	if t.SYN {
		f |= 0x02
	}
	if t.RST {
		f |= 0x04
	}
	if t.PSH {
		f |= 0x08
	}
	if t.ACK {
		f |= 0x10
	}
	if t.URG {
		f |= 0x20
	}
	return f
}

func (t *TCP) setFlags(f uint8) {
	t.FIN = f&0x01 != 0
	t.SYN = f&0x02 != 0
	t.RST = f&0x04 != 0
	t.PSH = f&0x08 != 0
	t.ACK = f&0x10 != 0
	t.URG = f&0x20 != 0
}
