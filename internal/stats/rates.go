package stats

import "fmt"

// Rates is a fault injection result in the paper's sense: the fractions of
// fault injection tests whose outcome was Success, SDC, or Failure.
// The three fields sum to 1 for any non-empty sample.
type Rates struct {
	Success float64
	SDC     float64
	Failure float64
	// N is the number of trials the rates summarize.
	N uint64
}

// Counter accumulates trial outcomes and produces Rates.
// It is not safe for concurrent use; campaigns merge per-worker counters.
type Counter struct {
	Success uint64
	SDC     uint64
	Failure uint64
}

// Merge adds other's counts into c.
func (c *Counter) Merge(other Counter) {
	c.Success += other.Success
	c.SDC += other.SDC
	c.Failure += other.Failure
}

// Total returns the number of recorded trials.
func (c *Counter) Total() uint64 { return c.Success + c.SDC + c.Failure }

// Rates converts the counter into normalized Rates.  For an empty counter
// all rates are zero.
func (c *Counter) Rates() Rates {
	t := c.Total()
	if t == 0 {
		return Rates{}
	}
	f := float64(t)
	return Rates{
		Success: float64(c.Success) / f,
		SDC:     float64(c.SDC) / f,
		Failure: float64(c.Failure) / f,
		N:       t,
	}
}

// String renders the rates in the percentage form the paper uses.
func (r Rates) String() string {
	return fmt.Sprintf("success=%.1f%% sdc=%.1f%% failure=%.1f%% (n=%d)",
		100*r.Success, 100*r.SDC, 100*r.Failure, r.N)
}

// Scale returns the rates multiplied by w (used for the weighted sums of
// Eqs. 1 and 4).
func (r Rates) Scale(w float64) Rates {
	return Rates{Success: r.Success * w, SDC: r.SDC * w, Failure: r.Failure * w, N: r.N}
}

// Plus returns the element-wise sum of two rate vectors.
func (r Rates) Plus(o Rates) Rates {
	return Rates{
		Success: r.Success + o.Success,
		SDC:     r.SDC + o.SDC,
		Failure: r.Failure + o.Failure,
		N:       r.N + o.N,
	}
}
