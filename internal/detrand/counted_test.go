package detrand

import (
	"math/rand"
	"testing"
)

// TestCountedMatchesRand pins the contract the streaming population
// view depends on: a generator over a Counted source produces the
// identical draw sequence as detrand.Rand with the same identity.
func TestCountedMatchesRand(t *testing.T) {
	want := Rand(7, 71)
	got := NewCounted(7, 71).Rand()
	for i := 0; i < 10_000; i++ {
		switch i % 4 {
		case 0:
			w, g := want.Float64(), got.Float64()
			if w != g {
				t.Fatalf("draw %d: Float64 %v != %v", i, g, w)
			}
		case 1:
			w, g := want.Intn(1+i), got.Intn(1+i)
			if w != g {
				t.Fatalf("draw %d: Intn %v != %v", i, g, w)
			}
		case 2:
			w, g := want.Int63(), got.Int63()
			if w != g {
				t.Fatalf("draw %d: Int63 %v != %v", i, g, w)
			}
		default:
			w, g := want.Uint64(), got.Uint64()
			if w != g {
				t.Fatalf("draw %d: Uint64 %v != %v", i, g, w)
			}
		}
	}
}

// TestCountedSkipResumesStream pins the replay property: recording
// Draws() at a boundary and Skip()ing a fresh source to that count
// resumes the identical continuation stream, including across draws
// that consume a variable number of source steps (Intn rejection).
func TestCountedSkipResumesStream(t *testing.T) {
	consume := func(rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				rng.Float64()
			case 1:
				rng.Intn(3 + i)
			default:
				rng.Int63()
			}
		}
	}
	for _, prefix := range []int{0, 1, 17, 1000} {
		full := NewCounted(42, 99)
		rng := full.Rand()
		consume(rng, prefix)
		mark := full.Draws()

		resumed := NewCounted(42, 99)
		resumed.Skip(mark)
		if resumed.Draws() != mark {
			t.Fatalf("prefix %d: Draws after Skip = %d, want %d", prefix, resumed.Draws(), mark)
		}
		rrng := resumed.Rand()
		for i := 0; i < 1000; i++ {
			if w, g := rng.Int63(), rrng.Int63(); w != g {
				t.Fatalf("prefix %d: continuation draw %d: %v != %v", prefix, i, g, w)
			}
		}
	}
}

// TestCountedCloneIsIndependent pins Clone: a clone taken at any point —
// while the register is still lazy (before draw 274) or after it is
// built — continues the original's stream from that point, however far
// the original advances first, and advancing the clone leaves the
// original's stream intact.
func TestCountedCloneIsIndependent(t *testing.T) {
	for _, at := range []uint64{0, 1, 100, 273, 274, 275, 700, 2000} {
		ref := NewCounted(3, 33)
		ref.Skip(at)
		want := make([]uint64, 1500)
		for i := range want {
			want[i] = ref.Uint64()
		}

		orig := NewCounted(3, 33)
		orig.Skip(at)
		clone := orig.Clone()
		if clone.Draws() != at {
			t.Fatalf("clone at %d: Draws = %d", at, clone.Draws())
		}
		// Advance the original across the register build and past a
		// full register wrap before the clone draws at all.
		for i := range want {
			if g := orig.Uint64(); g != want[i] {
				t.Fatalf("clone at %d: original draw %d = %#x, want %#x", at, i, g, want[i])
			}
		}
		again := clone.Clone()
		for i := range want {
			if g := clone.Uint64(); g != want[i] {
				t.Fatalf("clone at %d: clone draw %d = %#x, want %#x", at, i, g, want[i])
			}
		}
		// A clone of the clone, taken before the clone advanced, still
		// sits at the branch point.
		if g := again.Uint64(); g != want[0] {
			t.Fatalf("clone at %d: second clone draw 0 = %#x, want %#x", at, g, want[0])
		}
		if clone.Draws() != at+uint64(len(want)) || orig.Draws() != at+uint64(len(want)) {
			t.Fatalf("clone at %d: Draws %d / %d after %d draws", at, clone.Draws(), orig.Draws(), len(want))
		}
	}
}
