package packet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	v4a = netip.MustParseAddr("192.0.2.1")
	v4b = netip.MustParseAddr("198.51.100.7")
	v6a = netip.MustParseAddr("2001:db8::1")
	v6b = netip.MustParseAddr("2001:db8:ffff::53")
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd final byte is padded with zero on the right.
	even := []byte{0xab, 0x00}
	odd := []byte{0xab}
	if Checksum(even) != Checksum(odd) {
		t.Fatal("odd-length checksum must equal zero-padded even-length checksum")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("hello world")
	raw, err := BuildUDP(v4a, v4b, 1, 2, 61, payload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := IPv4{DontFrag: true, TTL: 61, Protocol: IPProtoUDP, Src: v4a, Dst: v4b}
	if p.V4 == nil || *p.V4 != want || p.V6 != nil {
		t.Fatalf("IPv4 header = %+v, want %+v", p.V4, want)
	}
	if !bytes.Equal(p.Data, payload) {
		t.Fatalf("payload = %q", p.Data)
	}
}

func TestIPv4ChecksumVerified(t *testing.T) {
	raw, err := BuildUDP(v4a, v4b, 1, 2, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xff // corrupt TTL
	if _, err := Decode(raw); err == nil {
		t.Fatal("corrupted IPv4 header accepted")
	}
}

func TestIPv4RejectsV6Addrs(t *testing.T) {
	if _, err := BuildUDP(v6a, v4b, 1, 2, 64, nil); err == nil {
		t.Fatal("UDP build with IPv6 source and IPv4 destination should fail")
	}
	if _, err := BuildTCP(v4a, v6b, &TCP{SYN: true}, 64, nil); err == nil {
		t.Fatal("TCP build with IPv4 source and IPv6 destination should fail")
	}
	if _, err := BuildUDP(netip.Addr{}, v4b, 1, 2, 64, nil); err == nil {
		t.Fatal("UDP build with an invalid source should fail")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	raw, err := BuildTCP(v6a, v6b, &TCP{SrcPort: 1, DstPort: 2, ACK: true}, 58, payload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := IPv6{NextHeader: IPProtoTCP, HopLimit: 58, Src: v6a, Dst: v6b}
	if p.V6 == nil || *p.V6 != want || p.V4 != nil {
		t.Fatalf("IPv6 header = %+v, want %+v", p.V6, want)
	}
	if !bytes.Equal(p.Data, payload) {
		t.Fatalf("payload = %v", p.Data)
	}
}

// wireFixtures are datagrams captured from the original layered
// encoder. BuildUDP/BuildTCP must reproduce each byte for byte, and
// Decode must return the fields each was built from.
var wireFixtures = []struct {
	name     string
	src, dst netip.Addr
	ttl      uint8
	udp      *UDP // exactly one of udp/tcp is set
	tcp      *TCP
	payload  string
	hex      string
}{
	{
		name: "udp4", src: v4a, dst: v4b, ttl: 64,
		udp: &UDP{SrcPort: 40000, DstPort: 53}, payload: "dns query bytes",
		hex: "4500002b0000400040114e86c0000201c63364079c40003500170598646e73207175657279206279746573",
	},
	{
		name: "udp6", src: v6a, dst: v6b, ttl: 255,
		udp: &UDP{SrcPort: 1024, DstPort: 53}, payload: "v6 payload",
		hex: "60000000001211ff20010db800000000000000000000000120010db8ffff00000000000000000053" +
			"040000350012d9db7636207061796c6f6164",
	},
	{
		name: "tcp4-syn-options", src: v4a, dst: v4b, ttl: 128,
		tcp: &TCP{SrcPort: 55555, DstPort: 53, Seq: 0xdeadbeef, SYN: true, Window: 29200,
			Options: []TCPOption{
				{Kind: TCPOptMSS, Data: []byte{0x05, 0xb4}},
				{Kind: TCPOptSACKPermit},
				{Kind: TCPOptNop},
				{Kind: TCPOptWindowScale, Data: []byte{7}},
			}},
		hex: "450000340000400080060e88c0000201c6336407" +
			"d9030035deadbeef00000000800272109aef0000020405b40402010303070000",
	},
	{
		name: "tcp6-psh-ack", src: v6b, dst: v6a, ttl: 64,
		tcp:     &TCP{SrcPort: 53, DstPort: 55555, Seq: 7, Ack: 0xdeadbef0, ACK: true, PSH: true, Window: 65535},
		payload: "\x00\x03abc",
		hex: "600000000019064020010db8ffff0000000000000000005320010db8000000000000000000000001" +
			"0035d90300000007deadbef05018ffff18be00000003616263",
	},
	{
		// The UDP checksum computes to 0x0000 and is sent as 0xffff
		// (RFC 768); the datagram is valid and must decode.
		name: "udp4-checksum-0xffff",
		src:  netip.MustParseAddr("10.0.0.1"), dst: netip.MustParseAddr("10.0.0.2"), ttl: 64,
		udp: &UDP{SrcPort: 42954, DstPort: 53}, payload: "hello",
		hex: "4500002100004000401126ca0a0000010a000002a7ca0035000dffff68656c6c6f",
	},
}

func TestWireFixtures(t *testing.T) {
	for _, f := range wireFixtures {
		t.Run(f.name, func(t *testing.T) {
			var raw []byte
			var err error
			if f.tcp != nil {
				raw, err = BuildTCP(f.src, f.dst, f.tcp, f.ttl, []byte(f.payload))
			} else {
				raw, err = BuildUDP(f.src, f.dst, f.udp.SrcPort, f.udp.DstPort, f.ttl, []byte(f.payload))
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(raw); got != f.hex {
				t.Fatalf("built\n%s\nwant\n%s", got, f.hex)
			}
			wire, _ := hex.DecodeString(f.hex)
			p, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			var ttl uint8
			if p.IsIPv6() {
				ttl = p.V6.HopLimit
			} else {
				ttl = p.V4.TTL
			}
			if p.Src() != f.src || p.Dst() != f.dst || ttl != f.ttl || string(p.Data) != f.payload {
				t.Fatalf("decoded %v -> %v ttl %d payload %q", p.Src(), p.Dst(), ttl, p.Data)
			}
			if !reflect.DeepEqual(p.UDP, f.udp) || !reflect.DeepEqual(p.TCP, f.tcp) {
				t.Fatalf("decoded transport UDP %+v TCP %+v, want %+v %+v", p.UDP, p.TCP, f.udp, f.tcp)
			}
		})
	}
}

func TestIPv4OversizeRejected(t *testing.T) {
	// 20 + 8 + 65507 is the largest IPv4 UDP datagram.
	raw, err := BuildUDP(v4a, v4b, 1, 2, 64, make([]byte, 65507))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw); err != nil {
		t.Fatalf("largest IPv4 UDP datagram rejected: %v", err)
	}
	if _, err := BuildUDP(v4a, v4b, 1, 2, 64, make([]byte, 65520)); err == nil {
		t.Fatal("UDP datagram over 65,535 bytes built without error")
	}
	if _, err := BuildTCP(v4a, v4b, &TCP{SrcPort: 1, DstPort: 2}, 64, make([]byte, 70000)); err == nil {
		t.Fatal("TCP datagram over 65,535 bytes built without error")
	}
}

func TestBuildAndDecodeAllocateOnce(t *testing.T) {
	payload := make([]byte, 64)
	raw, err := BuildUDP(v4a, v4b, 40000, 53, 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"BuildUDP v4": func() { _, _ = BuildUDP(v4a, v4b, 40000, 53, 64, payload) },
		"BuildUDP v6": func() { _, _ = BuildUDP(v6a, v6b, 40000, 53, 64, payload) },
		"Decode UDP":  func() { _, _ = Decode(raw) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 1 {
			t.Errorf("%s allocates %v times, want 1", name, n)
		}
	}
}

func TestUDPRoundTripV4(t *testing.T) {
	raw, err := BuildUDP(v4a, v4b, 40000, 53, 64, []byte("dns query bytes"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || p.IsIPv6() {
		t.Fatal("expected IPv4 UDP packet")
	}
	if p.SrcPort() != 40000 || p.DstPort() != 53 {
		t.Fatalf("ports = %d->%d", p.SrcPort(), p.DstPort())
	}
	if string(p.Data) != "dns query bytes" {
		t.Fatalf("payload = %q", p.Data)
	}
}

func TestUDPRoundTripV6(t *testing.T) {
	raw, err := BuildUDP(v6a, v6b, 1024, 53, 64, []byte("v6 payload"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || !p.IsIPv6() {
		t.Fatal("expected IPv6 UDP packet")
	}
	if p.Src() != v6a || p.Dst() != v6b {
		t.Fatalf("addrs = %v -> %v", p.Src(), p.Dst())
	}
}

func TestUDPChecksumVerified(t *testing.T) {
	raw, err := BuildUDP(v4a, v4b, 1, 2, 64, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt payload: transport checksum must catch it
	if _, err := Decode(raw); err == nil {
		t.Fatal("corrupted UDP payload accepted")
	}
}

func TestUDPMixedFamiliesRejected(t *testing.T) {
	if _, err := BuildUDP(v4a, v6b, 1, 2, 64, nil); err == nil {
		t.Fatal("mixed address families accepted")
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	tcp := &TCP{
		SrcPort: 55555, DstPort: 53, Seq: 0xdeadbeef, SYN: true, Window: 29200,
		Options: []TCPOption{
			{Kind: TCPOptMSS, Data: []byte{0x05, 0xb4}},
			{Kind: TCPOptSACKPermit},
			{Kind: TCPOptTimestamps, Data: make([]byte, 8)},
			{Kind: TCPOptNop},
			{Kind: TCPOptWindowScale, Data: []byte{7}},
		},
	}
	raw, err := BuildTCP(v4a, v4b, tcp, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil {
		t.Fatal("no TCP layer")
	}
	if !p.TCP.SYN || p.TCP.ACK {
		t.Fatalf("flags wrong: %+v", p.TCP)
	}
	if mss, ok := p.TCP.MSS(); !ok || mss != 1460 {
		t.Fatalf("MSS = %d, %v", mss, ok)
	}
	if ws, ok := p.TCP.WindowScale(); !ok || ws != 7 {
		t.Fatalf("window scale = %d, %v", ws, ok)
	}
	if p.TCP.Window != 29200 || p.TCP.Seq != 0xdeadbeef {
		t.Fatalf("header mismatch: %+v", p.TCP)
	}
}

func TestTCPChecksumVerified(t *testing.T) {
	tcp := &TCP{SrcPort: 1, DstPort: 2, SYN: true, Window: 100}
	raw, err := BuildTCP(v6a, v6b, tcp, 64, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	raw[45] ^= 0x01
	if _, err := Decode(raw); err == nil {
		t.Fatal("corrupted TCP segment accepted")
	}
}

func TestTCPFlagsRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		in := &TCP{SrcPort: 9, DstPort: 10, Window: 1}
		in.FIN = i&1 != 0
		in.SYN = i&2 != 0
		in.RST = i&4 != 0
		in.PSH = i&8 != 0
		in.ACK = i&16 != 0
		in.URG = i&32 != 0
		raw, err := BuildTCP(v4a, v4b, in, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		out := p.TCP
		if out.FIN != in.FIN || out.SYN != in.SYN || out.RST != in.RST ||
			out.PSH != in.PSH || out.ACK != in.ACK || out.URG != in.URG {
			t.Fatalf("flag combination %d did not round-trip", i)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {0x00}, {0x50, 1, 2}, bytes.Repeat([]byte{0xff}, 40)} {
		if _, err := Decode(raw); err == nil {
			t.Fatalf("garbage %v decoded without error", raw)
		}
	}
}

// quickAddr4 derives a deterministic IPv4 address from a seed.
func quickAddr4(seed uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], seed|0x01000000) // avoid 0.x
	return netip.AddrFrom4(b)
}

func quickAddr6(seed uint64) netip.Addr {
	var b [16]byte
	b[0] = 0x20
	b[1] = 0x01
	binary.BigEndian.PutUint64(b[8:], seed)
	return netip.AddrFrom16(b)
}

func TestQuickUDPv4RoundTrip(t *testing.T) {
	f := func(srcSeed, dstSeed uint32, sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		src, dst := quickAddr4(srcSeed), quickAddr4(dstSeed)
		raw, err := BuildUDP(src, dst, sp, dp, 64, payload)
		if err != nil {
			return false
		}
		p, err := Decode(raw)
		if err != nil {
			return false
		}
		return p.Src() == src && p.Dst() == dst &&
			p.SrcPort() == sp && p.DstPort() == dp &&
			bytes.Equal(p.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUDPv6RoundTrip(t *testing.T) {
	f := func(srcSeed, dstSeed uint64, sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		src, dst := quickAddr6(srcSeed), quickAddr6(dstSeed)
		raw, err := BuildUDP(src, dst, sp, dp, 64, payload)
		if err != nil {
			return false
		}
		p, err := Decode(raw)
		if err != nil {
			return false
		}
		return p.Src() == src && p.Dst() == dst && bytes.Equal(p.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChecksumBitFlipDetected(t *testing.T) {
	// Property: any single bit flip in a UDP packet is detected by either
	// the IP header checksum or the transport checksum.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		payload := make([]byte, 1+rng.Intn(100))
		rng.Read(payload)
		raw, err := BuildUDP(v4a, v4b, uint16(rng.Intn(65536)), 53, 64, payload)
		if err != nil {
			t.Fatal(err)
		}
		bit := rng.Intn(len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)
		if p, err := Decode(raw); err == nil {
			// A flip inside the checksum fields themselves also must fail
			// verification; anywhere else certainly must.
			t.Fatalf("bit flip at %d undetected (decoded %+v)", bit, p)
		}
	}
}

func BenchmarkBuildUDPv4(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUDP(v4a, v4b, 40000, 53, 64, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUDPv4(b *testing.B) {
	raw, _ := BuildUDP(v4a, v4b, 40000, 53, 64, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
