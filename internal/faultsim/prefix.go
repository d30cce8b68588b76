package faultsim

import (
	"sort"
	"sync/atomic"

	"resmod/internal/apps"
	"resmod/internal/fpe"
)

// prefixTableBytes bounds the states one prefix table holds.
const prefixTableBytes = 512 << 10

// prefixTable holds the states of a campaign's app at evenly spaced step
// boundaries, so that a trial starts at the last boundary before its first
// injection instead of re-running the golden prefix.  Before its first
// injection a trial executes exactly the golden's ops on the golden's
// operands, so where it starts cannot change its outcome, its contaminated
// ranks, its Fired count or its Records.
//
// One runRange call owns the table and drops it when it returns, so the
// states live only while the campaign (or shard) runs.  The campaign's own
// trials fill it: a trial records the empty boundaries it passes before its
// first injection is due, and publishes them only after its execution
// returned cleanly.  A slot is published once and read-only after that.
type prefixTable struct {
	golden *Golden
	steps  []int // the boundaries held, ascending
	slots  []atomic.Pointer[apps.Boundary]
}

// newPrefixTable returns a table for campaigns against g, or nil when no
// boundary can be held: the app has no steps, or one boundary's states
// exceed the budget.  The last boundary is never held: code after the loop
// may read what the last step wrote without carrying it (see apps.Stepped).
func newPrefixTable(g *Golden) *prefixTable {
	if g.carryBytes == 0 {
		return nil
	}
	n := len(g.StepCounts[0]) - 2 // boundaries 1..n
	fit := prefixTableBytes / g.carryBytes
	if n < 1 || fit < 1 {
		return nil
	}
	stride := 1
	for n/stride > fit {
		stride++
	}
	t := &prefixTable{golden: g}
	for b := stride; b <= n; b += stride {
		t.steps = append(t.steps, b)
	}
	t.slots = make([]atomic.Pointer[apps.Boundary], len(t.steps))
	return t
}

// plan returns the StepPlan of a trial with these plans: start at the last
// published boundary up to the limit, and record the empty ones between it
// and the limit.  Nil means a run from the start that records nothing.
func (t *prefixTable) plan(plans map[int][]fpe.Injection) *apps.StepPlan {
	if t == nil {
		return nil
	}
	limit := apps.LastClean(t.golden.StepCounts, plans, t.steps[len(t.steps)-1])
	end := sort.SearchInts(t.steps, limit+1) // the slots up to the limit
	var sp apps.StepPlan
	first := 0
	for i := end - 1; i >= 0; i-- {
		if b := t.slots[i].Load(); b != nil {
			sp.From, first = b, i+1
			break
		}
	}
	for i := first; i < end; i++ {
		if t.slots[i].Load() == nil {
			sp.Record = append(sp.Record, apps.NewBoundary(t.steps[i], t.golden.Procs))
		}
	}
	if sp.From == nil && sp.Record == nil {
		return nil
	}
	return &sp
}

// publish makes the boundaries a cleanly returned execution recorded
// visible; a slot another trial filled first keeps its state.
func (t *prefixTable) publish(sp *apps.StepPlan) {
	for _, b := range sp.Record {
		i := sort.SearchInts(t.steps, b.Step)
		t.slots[i].CompareAndSwap(nil, b)
	}
}
