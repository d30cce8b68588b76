package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-th quantile (0..1) of the samples by the
// nearest-rank rule over a sorted copy: no buckets, no interpolation, so
// the value printed is always one that was measured.  Empty input gives 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two middle samples for an
// even count), the statistic every repeated timing is reduced to.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is what the driver's spread rule is stated in.  It needs two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		m := median(samples)
		return m, m
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// splitmix is the benchmark's own input generator: a splitmix64 stream, so
// the request sequence is a pure function of the seed and independent of
// math/rand's algorithm across Go versions.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).  The modulo bias is below 2^-50 for the
// small n used here.
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }
