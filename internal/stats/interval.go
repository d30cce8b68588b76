package stats

import "math"

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: successes/n observed, at approximately the given z quantile
// (z = 1.96 for 95% confidence).  The paper's protocol keeps injecting
// until the fault injection result stabilizes; the interval makes that
// precision explicit for any trial count.
func WilsonInterval(successes, n uint64, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	nf := float64(n)
	p := float64(successes) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Interval is a confidence interval over a rate.
type Interval struct {
	Lo float64
	Hi float64
}

// Width returns the interval width — the convergence measure the paper's
// "inject until stable" protocol makes implicit.
func (i Interval) Width() float64 { return i.Hi - i.Lo }

// RateIntervals bundles the Wilson 95% intervals of all three outcome
// rates — the convergence report attached to campaign summaries and
// streamed in live-progress snapshots.
type RateIntervals struct {
	Success Interval
	SDC     Interval
	Failure Interval
}

// interval95 returns the 95% Wilson interval of one outcome rate,
// recovering the raw tally from the normalized rate and N.
func (r Rates) interval95(rate float64) Interval {
	lo, hi := WilsonInterval(uint64(rate*float64(r.N)+0.5), r.N, 1.96)
	return Interval{Lo: lo, Hi: hi}
}

// SuccessInterval returns the 95% Wilson interval of a Rates value's
// success rate.
func (r Rates) SuccessInterval() (lo, hi float64) {
	i := r.interval95(r.Success)
	return i.Lo, i.Hi
}

// SDCInterval returns the 95% Wilson interval of the SDC rate.
func (r Rates) SDCInterval() (lo, hi float64) {
	i := r.interval95(r.SDC)
	return i.Lo, i.Hi
}

// FailureInterval returns the 95% Wilson interval of the failure rate.
func (r Rates) FailureInterval() (lo, hi float64) {
	i := r.interval95(r.Failure)
	return i.Lo, i.Hi
}

// Intervals95 returns the Wilson 95% intervals of all three outcome
// rates at once.
func (r Rates) Intervals95() RateIntervals {
	return RateIntervals{
		Success: r.interval95(r.Success),
		SDC:     r.interval95(r.SDC),
		Failure: r.interval95(r.Failure),
	}
}
