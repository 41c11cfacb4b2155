// Package detrng is the simulators' random generator: math/rand's
// additive lagged-Fibonacci generator, reimplemented with a draw
// counter so a stream's position is serializable. The simulators'
// determinism contract says every run is a pure function of (params,
// seed); a checkpoint therefore does not need to serialize the
// generator's register at all — it records the seed and how many values
// have been drawn, and a restore re-seeds and fast-forwards. Replay cost
// is linear in the position, which is trivial next to re-simulating the
// cycles that consumed those draws.
//
// The generator is stream-identical to rand.New(rand.NewSource(seed)):
// Float64, Intn and Int63 run math/rand's algorithms over the same
// recurrence, so a run keeps every value, and every committed digest,
// of the *rand.Rand it replaces. Calling the concrete methods directly
// saves the two interface calls per draw a *rand.Rand makes (Rand to
// Source, Source to the generator). Every method consumes whole steps
// of the recurrence, so a single counter positions the stream whatever
// mix of methods consumed it.
//
// The register is not seeded by a copy of math/rand's seeding constants:
// New takes math/rand's own source, reads its first 607 outputs - which
// are exactly its register after 607 steps - and steps the recurrence
// 607 times backwards to the register it was seeded with.
package detrng

import "math/rand"

// The recurrence x[i] = x[i-607] + x[i-273] (mod 2^64) of math/rand's
// rngSource: the register holds the last rngLen values, feed is where
// the next one is written and tap where its second term is read.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// Source is a seeded generator that counts its draws. Create with New
// or Restore; the zero value is not usable. It also implements
// rand.Source64, with the same stream as the source it reimplements.
type Source struct {
	seed      int64
	draws     uint64
	tap, feed int
	vec       [rngLen]int64
}

// New returns a generator seeded with seed, positioned at draw 0.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Restore returns a generator seeded with seed and fast-forwarded past
// the first draws values: the position a checkpoint recorded.
func Restore(seed int64, draws uint64) *Source {
	s := New(seed)
	for i := uint64(0); i < draws; i++ {
		s.Uint64()
	}
	return s
}

// Seed implements rand.Source: it re-seeds and rewinds the counter.
func (s *Source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	// Step i (1-based) of a fresh source writes, and returns, register
	// word feed-i mod rngLen; after rngLen steps tap and feed are back
	// where seeding left them.
	s.tap, s.feed = 0, rngLen-rngTap
	for i := 1; i <= rngLen; i++ {
		s.vec[(s.feed-i+rngLen)%rngLen] = int64(ref.Uint64())
	}
	// Undo those steps, last first.
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = s.tap+1, s.feed+1
		if s.tap == rngLen {
			s.tap = 0
		}
		if s.feed == rngLen {
			s.feed = 0
		}
	}
	s.seed, s.draws = seed, 0
}

// Uint64 implements rand.Source64: one step of the recurrence.
func (s *Source) Uint64() uint64 {
	s.draws++
	s.tap--
	if s.tap < 0 {
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

// Int63 returns a non-negative 63-bit value (rand.Source's method).
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 returns a value in [0, 1), as (*rand.Rand).Float64 does.
func (s *Source) Float64() float64 {
	for {
		// 1<<63 - 1 rounds up to 1.0; math/rand draws again.
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a value in [0, n), as (*rand.Rand).Intn does. It panics
// if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("detrng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is (*rand.Rand).Int31n: mask a power of two, else reject the
// top partial range of 31-bit values and reduce modulo n.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// int63n is (*rand.Rand).Int63n, the same scheme over 63-bit values.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// SeedValue returns the seed the stream was created from.
func (s *Source) SeedValue() int64 { return s.seed }

// Draws returns the stream position: the number of values drawn since
// seeding. Restore(s.SeedValue(), s.Draws()) reproduces the generator's
// exact state.
func (s *Source) Draws() uint64 { return s.draws }
