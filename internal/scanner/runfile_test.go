package scanner

import (
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/packet"
)

func sampleHits(t testing.TB) []Hit {
	t.Helper()
	raw, err := packet.BuildTCP(
		netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("198.51.100.1"),
		&packet.TCP{SrcPort: 40000, DstPort: 53, Seq: 7, SYN: true, Window: 65535,
			Options: []packet.TCPOption{{Kind: packet.TCPOptMSS, Data: []byte{0x05, 0xb4}}}},
		64, nil)
	if err != nil {
		t.Fatalf("BuildTCP: %v", err)
	}
	syn, err := packet.Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return []Hit{
		{
			Recv: 5 * time.Second, TS: 4 * time.Second, Lifetime: time.Second,
			Src: netip.MustParseAddr("203.0.113.7"), Dst: netip.MustParseAddr("198.51.100.1"),
			ASN: 64500, Kind: ProbeMain,
			Client: netip.MustParseAddr("198.51.100.1"), ClientPort: 3205,
			Transport: authserver.TransportUDP,
		},
		{
			Recv: 6 * time.Second, TS: 6 * time.Second, Lifetime: 0,
			Src: netip.MustParseAddr("2001:db8::5"), Dst: netip.MustParseAddr("2001:db8::1"),
			ASN: 64501, Kind: ProbeTC,
			Client: netip.MustParseAddr("2001:db8::1"), ClientPort: 53411,
			Transport: authserver.TransportTCP, SYN: syn,
		},
		{
			// Invalid source (upstream decode failure) and a zero port.
			Recv: 7 * time.Second, TS: 5 * time.Second, Lifetime: 2 * time.Second,
			Dst: netip.MustParseAddr("198.51.100.2"), ASN: 64502, Kind: ProbeV6,
			Client: netip.MustParseAddr("::ffff:198.51.100.2"), ClientPort: 0,
			Transport: authserver.TransportUDP,
		},
	}
}

func TestHitRunRoundTrip(t *testing.T) {
	hits := sampleHits(t)
	path := filepath.Join(t.TempDir(), "shard0.run")
	if err := WriteHitRun(path, hits); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	r, err := OpenHitRun(path)
	if err != nil {
		t.Fatalf("OpenHitRun: %v", err)
	}
	defer r.Close()
	var got []Hit
	for {
		h, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, h)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if !reflect.DeepEqual(got, hits) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, hits)
	}
	// The 4-in-6 client must survive as 4-in-6, not collapse to v4.
	if !got[2].Client.Is4In6() {
		t.Fatalf("4-in-6 client collapsed: %v", got[2].Client)
	}
}

func TestHitRunRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-run")
	if err := WriteHitRun(path, nil); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	if _, err := OpenHitRun(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	// Truncate mid-record: the reader must surface an error, not a
	// silent short run.
	hits := sampleHits(t)
	full := filepath.Join(t.TempDir(), "full.run")
	if err := WriteHitRun(full, hits); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	cut := filepath.Join(t.TempDir(), "cut.run")
	if err := os.WriteFile(cut, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := OpenHitRun(cut)
	if err != nil {
		t.Fatalf("OpenHitRun: %v", err)
	}
	defer r.Close()
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated run drained cleanly")
	}
}

// corruptRuns returns hand-built run files whose single record is
// intact up to its SYN flag byte: one claims a spilled SYN of length
// 1<<62, the other carries an unknown flag byte.
func corruptRuns(t testing.TB) (hugeSYN, badFlag []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.run")
	if err := WriteHitRun(path, sampleHits(t)[:1]); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if raw[len(raw)-1] != 0 {
		t.Fatalf("record does not end in a no-SYN flag: % x", raw)
	}
	body := raw[:len(raw)-1]
	hugeSYN = binary.AppendUvarint(append(append([]byte{}, body...), 1), 1<<62)
	badFlag = append(append([]byte{}, body...), 2)
	return hugeSYN, badFlag
}

// drainRun writes data as a run file at path and reads it to the end.
// err is OpenHitRun's error when the file did not open, else the
// reader's final Err.
func drainRun(t testing.TB, path string, data []byte) (hits []Hit, opened bool, err error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := OpenHitRun(path)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	for {
		h, ok := r.Next()
		if !ok {
			break
		}
		hits = append(hits, h)
		// Every record spans several bytes, so a reader that yields
		// more hits than the file has bytes is not advancing.
		if len(hits) > len(data) {
			t.Fatalf("reader yielded %d hits from %d bytes", len(hits), len(data))
		}
	}
	return hits, true, r.Err()
}

func TestHitRunRejectsCorruptSYN(t *testing.T) {
	hugeSYN, badFlag := corruptRuns(t)
	for _, c := range []struct {
		name, data, want string
	}{
		{"huge-syn-length", string(hugeSYN), "exceeds 65535"},
		{"bad-syn-flag", string(badFlag), "bad SYN flag 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			hits, opened, err := drainRun(t, filepath.Join(t.TempDir(), "corrupt.run"), []byte(c.data))
			if !opened {
				t.Fatalf("OpenHitRun: %v", err)
			}
			if len(hits) != 0 {
				t.Fatalf("corrupt record decoded as %+v", hits)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Err = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// FuzzRunFile feeds arbitrary bytes through OpenHitRun/Next/Err. The
// reader must never panic and must always terminate, and Err must be
// nil only at a clean end of the run: the hits it yielded, re-spilled
// in canonical form, read back identically, and that canonical file cut
// by one byte is an error.
func FuzzRunFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "run")
	if err := WriteHitRun(path, sampleHits(f)); err != nil {
		f.Fatalf("WriteHitRun: %v", err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	hugeSYN, badFlag := corruptRuns(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(hugeSYN)
	f.Add(badFlag)
	f.Add([]byte(runMagic))
	f.Add([]byte("DRUN"))

	dir := f.TempDir()
	in, canon := filepath.Join(dir, "in.run"), filepath.Join(dir, "canon.run")
	f.Fuzz(func(t *testing.T, data []byte) {
		hits, opened, err := drainRun(t, in, data)
		if magic := strings.HasPrefix(string(data), runMagic); opened != magic {
			t.Fatalf("OpenHitRun opened = %t for a file with magic = %t (%v)", opened, magic, err)
		}
		if !opened || err != nil {
			return
		}
		if err := WriteHitRun(canon, hits); err != nil {
			t.Fatalf("re-spill of a cleanly read run: %v", err)
		}
		raw, rerr := os.ReadFile(canon)
		if rerr != nil {
			t.Fatalf("ReadFile: %v", rerr)
		}
		again, _, err := drainRun(t, in, raw)
		if err != nil || !reflect.DeepEqual(again, hits) {
			t.Fatalf("canonical re-spill read back as %d hits, err %v; want %d hits", len(again), err, len(hits))
		}
		if len(hits) > 0 {
			if _, _, err := drainRun(t, in, raw[:len(raw)-1]); err == nil {
				t.Fatal("a run cut mid-record drained cleanly")
			}
		}
	})
}
