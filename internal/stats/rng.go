// Package stats provides the statistical utilities used throughout resmod:
// deterministic pseudo-random number generation, similarity and error
// metrics, histograms of error-propagation cases, and rate summaries.
//
// Everything in this package is purely computational and allocation-light;
// it has no dependencies outside the standard library.
package stats

// RNG is a small, fast, deterministic pseudo-random number generator built
// from splitmix64 (for seeding and stream splitting) and xoshiro256**
// (for bulk generation).  Campaigns derive one independent RNG per fault
// injection trial so that trials can run concurrently yet reproducibly.
//
// The zero value is NOT usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is the standard seeding function recommended for xoshiro.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose entire sequence is determined by seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256** must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new generator that is statistically independent of r for
// the given stream index.  It does not advance r.
func (r *RNG) Split(stream uint64) *RNG {
	x := r.s[0] ^ (stream+1)*0xd1342543de82ef95
	return NewRNG(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method.  It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul128(v, n)
		if lo >= n || lo >= -n%n { // -n%n == (2^64 - n) % n
			return hi
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// SampleDistinct returns k distinct uniform values from [0, n), sorted
// ascending.  It panics if k > n or k < 0.
func (r *RNG) SampleDistinct(k int, n uint64) []uint64 {
	if k < 0 || uint64(k) > n {
		panic("stats: SampleDistinct: k out of range")
	}
	seen := make(map[uint64]struct{}, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		v := r.Uint64n(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	// insertion sort: k is tiny (number of injected errors).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
