package detrand

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// equivalenceSeeds covers math/rand's seed normalization (mod 2^31−1,
// 0 mapped to 89482311, negative seeds) and 200 seeds of the kind
// Rand derives.
func equivalenceSeeds() []int64 {
	const m = int32max
	seeds := []int64{0, 1, -1, m, -m, 2 * m, zeroSeed, math.MinInt64, math.MaxInt64}
	for i := uint64(0); i < 200; i++ {
		seeds = append(seeds, int64(Mix(i)))
	}
	return seeds
}

// sameStream fails unless want and got yield the same n draws,
// alternating Uint64 and Int63.
func sameStream(t *testing.T, label string, want rand.Source64, got *source, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("%s: draw %d: Uint64 %#x, want %#x", label, i, g, w)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("%s: draw %d: Int63 %#x, want %#x", label, i, g, w)
		}
	}
}

func stdSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// TestSourceMatchesMathRand pins the lazy source to math/rand's seeded
// stream for 2,000 draws: across the draw-273 handoff to the
// materialized register and past the 607-word wrap.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds() {
		sameStream(t, fmt.Sprint("seed ", seed), stdSource(seed), newSource(seed), 2000)
	}
}

// TestSourceReseed pins Seed on a used source, lazy or materialized.
func TestSourceReseed(t *testing.T) {
	for _, used := range []int{0, 10, 273, 274, 700} {
		want, got := stdSource(5), newSource(5)
		for i := 0; i < used; i++ {
			want.Uint64()
			got.Uint64()
		}
		want.Seed(-77)
		got.Seed(-77)
		sameStream(t, fmt.Sprint("reseed after ", used), want, got, 2000)
	}
}

// TestCountedSkipMatchesMathRand pins Skip inside the lazy prefix, at
// the handoff and beyond it, and that a Skip within the first rngTap
// draws leaves the register unbuilt.
func TestCountedSkipMatchesMathRand(t *testing.T) {
	for _, n := range []uint64{0, 1, 272, 273, 274, 1000} {
		c := NewCounted(3, 4)
		want := stdSource(int64(Mix(3, 4)))
		for i := uint64(0); i < n; i++ {
			want.Uint64()
		}
		c.Skip(n)
		if c.Draws() != n {
			t.Fatalf("Skip(%d): Draws = %d", n, c.Draws())
		}
		if lazy := c.src.vec == nil; lazy != (n <= rngTap) {
			t.Fatalf("Skip(%d): register built = %v, want %v", n, !lazy, n > rngTap)
		}
		sameStream(t, fmt.Sprint("skip ", n), want, &c.src, 1000)
	}
}

// TestRandMatchesMathRand drives both streams through rand.Rand's
// derived draws: Intn and Int63n with frequent rejection, and Float64.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds()[:20] {
		want, got := rand.New(rand.NewSource(seed)), Rand()
		got.Seed(seed)
		for i := 0; i < 2000; i++ {
			switch i % 3 {
			case 0:
				if w, g := want.Intn(1<<30+1), got.Intn(1<<30+1); w != g {
					t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, g, w)
				}
			case 1:
				if w, g := want.Int63n(1<<62+1), got.Int63n(1<<62+1); w != g {
					t.Fatalf("seed %d draw %d: Int63n %d, want %d", seed, i, g, w)
				}
			default:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestRandFirstDrawCost pins what the lazy seeding buys: a fresh stream
// and one draw allocate the generator and the small source, not
// math/rand's 4.9 KB register (about 5.4 MB per 1,000 picks).
func TestRandFirstDrawCost(t *testing.T) {
	var sink int64
	draw := func(i uint64) { sink += Rand(17, i).Int63n(254) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < 1000; i++ {
		draw(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("1,000 Rand+Int63n calls allocated %d B, want < 256 KiB", got)
	}
	i := uint64(0)
	if got := testing.AllocsPerRun(100, func() { i++; draw(i) }); got > 2 {
		t.Errorf("Rand+Int63n: %v allocs per call, want ≤ 2", got)
	}
	_ = sink
}

// FuzzSource drives the lazy source and math/rand.NewSource(seed)
// through the same rand.Rand calls after n raw draws (Skip on one side,
// a loop on the other). Each op byte picks a call by its low three bits
// and sizes its argument by the rest; op 7 reseeds both mid-stream.
// Only the first 64 ops run, which keeps input minimization quick.
func FuzzSource(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), uint16(272), []byte{1, 1, 1, 0x22, 0x33})
	f.Add(int64(math.MinInt64), uint16(273), []byte{2, 10, 18, 7, 0})
	f.Add(int64(math.MaxInt64), uint16(606), []byte{4, 4, 4, 3, 11})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ops []byte) {
		c := new(Counted)
		c.Seed(seed)
		c.Skip(uint64(n))
		want, got := rand.New(rand.NewSource(seed)), c.Rand()
		for i := 0; i < int(n); i++ {
			want.Int63()
		}
		for i, op := range ops[:min(len(ops), 64)] {
			arg := int64(op >> 3)
			var w, g any
			switch op & 7 {
			case 0:
				w, g = want.Int63(), got.Int63()
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				w, g = want.Intn(1<<30+1+int(arg)), got.Intn(1<<30+1+int(arg))
			case 3:
				w, g = want.Int63n(1<<62+1+arg), got.Int63n(1<<62+1+arg)
			case 4:
				w, g = want.Float64(), got.Float64()
			case 5:
				w, g = want.Int31n(int32(arg)+1), got.Int31n(int32(arg)+1)
			case 6:
				w, g = want.Uint32(), got.Uint32()
			default:
				want.Seed(seed + arg)
				got.Seed(seed + arg)
				continue
			}
			if w != g {
				t.Fatalf("op %d (%#x): got %v, want %v", i, op, g, w)
			}
		}
	})
}

var benchSink int64

// BenchmarkRandFirstDraw is the one-draw pick: a fresh keyed stream
// and a single Int63n, as target and source picks use it.
func BenchmarkRandFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += Rand(17, uint64(i)).Int63n(254)
	}
}

// BenchmarkMathRandFirstDraw is BenchmarkRandFirstDraw over
// math/rand.NewSource, the generator Rand used to build.
func BenchmarkMathRandFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += rand.New(rand.NewSource(int64(Mix(17, uint64(i))))).Int63n(254)
	}
}

// BenchmarkRandStream is the steady-state draw, past the register
// handoff.
func BenchmarkRandStream(b *testing.B) {
	rng := Rand(17)
	for i := 0; i < 2*rngLen; i++ {
		rng.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += rng.Int63()
	}
}

// BenchmarkMathRandStream is BenchmarkRandStream over math/rand.
func BenchmarkMathRandStream(b *testing.B) {
	rng := rand.New(rand.NewSource(int64(Mix(17))))
	for i := 0; i < 2*rngLen; i++ {
		rng.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += rng.Int63()
	}
}
