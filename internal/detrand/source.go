package detrand

// math/rand's seeded generator (rngSource) is an additive lagged
// Fibonacci generator over a 607-word register. Seeding fills the
// register from the seed's Lehmer sequence x ← 48271·x mod (2^31−1):
// after 20 warm-up steps, word i is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// and draw k writes word 334−k, the sum of words 334−k and 607−k. No
// draw before the 274th reads a word an earlier draw wrote, so those
// draws need six Lehmer outputs each and no register at all. source
// serves them that way and fills the register only for draw 274, which
// most streams (one target pick, one port) never reach.
const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	int32max  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA   = 48271
	zeroSeed  = 89482311 // math/rand's substitute for a seed ≡ 0
	lehmerRun = 20       // warm-up steps before word 0
)

// lehmerPow[n] is 48271^(21+n) mod (2^31−1): multiplying a normalized
// seed by lehmerPow[3i+j] gives the j-th Lehmer output behind register
// word i.
var lehmerPow = func() (t [3 * rngLen]uint32) {
	x := uint64(1)
	for range lehmerRun {
		x = x * lehmerA % int32max
	}
	for n := range t {
		x = x * lehmerA % int32max
		t[n] = uint32(x)
	}
	return t
}()

// source is a rand.Source64 whose stream is math/rand.NewSource(seed)'s,
// draw for draw, with the register built at the first draw that needs
// it. Until then it holds only the normalized seed, and tap holds
// minus the number of draws served.
type source struct {
	vec       *[rngLen]int64 // nil until draw rngTap+1
	tap, feed int
	seed      uint64 // normalized: in [1, 2^31−1)
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream exactly as math/rand's Seed does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = source{seed: uint64(seed)}
}

// word returns register word i as seeding leaves it.
func (s *source) word(i int) int64 {
	p := lehmerPow[3*i : 3*i+3]
	x1 := s.seed * uint64(p[0]) % int32max
	x2 := s.seed * uint64(p[1]) % int32max
	x3 := s.seed * uint64(p[2]) % int32max
	return int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
}

// materialize builds the register as math/rand's would stand after
// rngTap draws: seeded words, with draw k's sum stored in word 334−k.
func (s *source) materialize() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] += vec[rngLen-k]
	}
	s.vec, s.tap, s.feed = vec, rngLen-rngTap, rngLen-2*rngTap
}

// Uint64 returns the next value of the stream: math/rand's register
// step, feed word += tap word. The lazy draws hide behind the tap
// wrap-around branch, so a built register pays no more branches than
// math/rand's.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		if s.vec == nil {
			return uint64(s.lazy())
		}
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
// It repeats Uint64's body: the lazy branch keeps Uint64 from being
// inlined, and a call would add about a third to every steady-state
// draw.
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		if s.vec == nil {
			return s.lazy() & rngMask
		}
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// lazy serves draw k = −tap before the register exists: the seeded
// feed word 334−k plus the seeded tap word 607−k. Draw rngTap+1 builds
// the register and steps it.
func (s *source) lazy() int64 {
	if k := -s.tap; k <= rngTap {
		return s.word(rngLen-rngTap-k) + s.word(rngLen-k)
	}
	s.materialize()
	return int64(s.Uint64())
}

// skip advances the stream n draws; draws the register does not need
// yet cost nothing.
func (s *source) skip(n uint64) {
	if s.vec == nil {
		m := min(n, uint64(rngTap+s.tap))
		s.tap -= int(m)
		n -= m
	}
	for ; n > 0; n-- {
		s.Uint64()
	}
}
