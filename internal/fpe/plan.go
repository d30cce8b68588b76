package fpe

import (
	"fmt"

	"resmod/internal/stats"
)

// PlanError is returned when a plan cannot be drawn because the target
// operation stream is too small.
type PlanError struct {
	Class  RegionClass
	Want   int
	Have   uint64
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("fpe: cannot plan %d injection(s) in %s stream of %d ops: %s",
		e.Want, e.Class, e.Have, e.Reason)
}

// DrawPlan draws k independent single-bit injections uniformly over the
// dynamic operation stream of the given region class, with distinct
// operation indices (the paper's k-errors-per-test serial deployments).
func DrawPlan(rng *stats.RNG, counts Counts, class RegionClass, k int) ([]Injection, error) {
	n := counts.Of(class)
	if k < 0 {
		return nil, &PlanError{Class: class, Want: k, Have: n, Reason: "negative error count"}
	}
	if uint64(k) > n {
		return nil, &PlanError{Class: class, Want: k, Have: n, Reason: "stream shorter than error count"}
	}
	plan := make([]Injection, k)
	for i, ix := range rng.SampleDistinct(k, n) {
		plan[i] = drawSite(rng, class, ix)
	}
	return plan, nil
}

// DrawPlanAnyRegion draws k independent single-bit injections with
// distinct operation indices uniformly over the union of the common and
// unique streams — the paper's parallel fault injection tests.  Each error
// independently lands in the common or the parallel-unique computation in
// proportion to the dynamic op counts, so multi-error parallel deployments
// sample the same flattened stream single-error ones do.
func DrawPlanAnyRegion(rng *stats.RNG, counts Counts, k int) ([]Injection, error) {
	total := counts.Total()
	if k < 0 {
		return nil, &PlanError{Class: Common, Want: k, Have: total, Reason: "negative error count"}
	}
	if total == 0 {
		return nil, &PlanError{Class: Common, Want: k, Have: 0, Reason: "empty operation stream"}
	}
	if uint64(k) > total {
		return nil, &PlanError{Class: Common, Want: k, Have: total, Reason: "stream shorter than error count"}
	}
	// Distinct flat indices over [common][unique] map to distinct
	// (class, index) injection sites.
	plan := make([]Injection, k)
	for i, flat := range rng.SampleDistinct(k, total) {
		if flat < counts.Common {
			plan[i] = drawSite(rng, Common, flat)
		} else {
			plan[i] = drawSite(rng, Unique, flat-counts.Common)
		}
	}
	return plan, nil
}

// drawSite completes the injection at a drawn site: the bit, then the
// operand — the order every campaign's RNG stream has consumed them in.
func drawSite(rng *stats.RNG, class RegionClass, index uint64) Injection {
	bit := uint(rng.Intn(64))
	return Injection{Class: class, Index: index, Bit: bit, Operand: rng.Intn(2)}
}
