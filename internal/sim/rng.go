package sim

import "math/rand"

// The simulator's randomness is organized as one private stream per
// terminal rather than one global stream consumed in injection scan
// order. That makes the traffic realization a pure function of (seed,
// terminal, draw index), independent of the order terminals are
// stepped in. The reference simulator builds the same streams (see
// TermRNG), which is what lets the two agree bit for bit (DESIGN §9.2).

// splitmix64 is a tiny allocation-free rand.Source64 (Steele et al.'s
// SplitMix64 finalizer over a Weyl sequence). It exists so per-terminal
// streams are cheap: one 8-byte state word per terminal instead of the
// 607-word lagged-Fibonacci state of the default source.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

// termRNGState is the initial splitmix64 state of terminal term's
// stream for a run seeded with seed. The per-terminal states are
// decorrelated with a second odd constant so adjacent terminals do not
// sample adjacent points of one Weyl orbit.
func termRNGState(seed int64, term int) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(term+1)*0xD1B54A32D192ED03
}

// TermRNG returns terminal term's private random stream for a run
// seeded with seed. Injectors receive exactly this stream for their
// Generate(term, ...) calls; the reference simulator builds the same
// streams so both engines see identical traffic.
func TermRNG(seed int64, term int) *rand.Rand {
	return rand.New(&splitmix64{x: termRNGState(seed, term)})
}

// PacketSalt hashes (source terminal, per-terminal packet sequence)
// into the packet's salt (murmur3-style finalizer, full avalanche so
// the low bits used for route and VC selection are well mixed). It is
// exported because the salt is part of the behavioural spec the
// reference simulator mirrors.
func PacketSalt(term int32, seq uint32) uint32 {
	x := uint64(uint32(term))<<32 | uint64(seq)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return uint32(x)
}
