package gen

import "math/bits"

// RNG is a small, fast, seedable pseudo-random generator
// (xoshiro256** seeded via splitmix64). The generators must be
// deterministic across runs and Go versions so that every experiment in
// EXPERIMENTS.md is reproducible bit-for-bit; math/rand's stream is not
// guaranteed stable, hence a self-contained implementation.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A zero state would be absorbing; splitmix64 cannot produce all-zero
	// output for four consecutive calls, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Next returns the next 64 random bits. It works on locals so that it stays
// within the inliner's budget: the generator calls it once per draw.
func (r *RNG) Next() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) * (1.0 / (1 << 53))
}
