// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by all Monte-Carlo components of the library.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit seed (including 0) produces a well-mixed initial state. It is
// deliberately not safe for concurrent use: Monte-Carlo workers each own
// a Source split off a parent with Split, which yields independent,
// reproducible streams without locking.
package rng

import "math"

// Source is a deterministic pseudo-random number generator.
// The zero value is not usable until Seed is called; construct with New
// or embed a Source by value and Seed it before use.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used for seeding and for splitting streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a well-mixed 64-bit hash of x (one splitmix64 step). It is
// a bijection on uint64, so distinct inputs yield distinct outputs; use it
// to derive seeds from structured values such as packed vertex pairs.
func Mix(x uint64) uint64 {
	return splitmix64(&x)
}

// New returns a Source seeded from the given 64-bit seed.
// Equal seeds produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
}

// Split returns a new Source whose stream is independent of the receiver's
// future output. It consumes one output from the receiver.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits: the top half of the
// next Uint64, which is the xoshiro output with the better-mixed bits.
// The generator body is spelled out (rather than calling Uint64) to keep
// the function inside the compiler's inlining budget — walk kernels draw
// through this on every step.
func (r *Source) Uint32() uint32 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return uint32(result >> 32)
}

// State returns the generator's four xoshiro256** state words. Bulk
// kernels copy the state into scalar locals (which the compiler keeps in
// registers — a pointer-addressed Source round-trips through memory on
// every draw), step the generator inline, and hand the words back via
// SetState. Such a kernel must reproduce the exact output sequence of
// Uint64/Uint32; the contract is pinned by the golden draw tests.
func (r *Source) State() (s0, s1, s2, s3 uint64) {
	return r.s0, r.s1, r.s2, r.s3
}

// SetState replaces the generator's state words; see State.
func (r *Source) SetState(s0, s1, s2, s3 uint64) {
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Uint32n returns a uniformly random integer in [0, n).
// It panics if n == 0. Uses Lemire's multiply-shift method: the product
// x·n splits into a quotient (the result) and a fractional remainder,
// and only draws whose remainder lands under the bias threshold reject.
// The no-rejection fast path is branch-one-compare; the threshold is
// computed once, in the out-of-line slow path, so retries cost a single
// multiply each.
func (r *Source) Uint32n(n uint32) uint32 {
	m := uint64(r.Uint32()) * uint64(n)
	if uint32(m) < n || n == 0 {
		m = r.uint32nSlow(m, n)
	}
	return uint32(m >> 32)
}

// uint32nSlow finishes a draw whose first attempt landed in the biased
// low region; it also hosts the n == 0 panic (the fast path's
// `uint32(m) < n` test alone would miss it — the product is 0 and
// 0 < 0 is false — so the caller checks n == 0 explicitly).
func (r *Source) uint32nSlow(m uint64, n uint32) uint64 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	thresh := -n % n
	for uint32(m) < thresh {
		m = uint64(r.Uint32()) * uint64(n)
	}
	return m
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	if n <= math.MaxUint32 {
		return int(r.Uint32n(uint32(n)))
	}
	// Rare path for very large n: rejection sample on 63 bits.
	max := uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < (1<<63)-((1<<63)%max) {
			return int(v % max)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Perm returns a random permutation of [0, n) as a slice of ints.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
