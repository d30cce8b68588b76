package apps

import (
	"fmt"
	"math"
	"slices"

	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// Stepped is the optional step contract of an App whose run is a loop of
// steps.  Before its loop a rank calls st.Resume(carry), which says at which
// step to start, and after step i-1 it calls st.Mark(i, carry): boundary i
// is the state after i steps.  Both are no-ops on a nil *Steps, and the
// app's Run is RunSteps(fc, comm, class, nil).
//
// At a boundary the Carry must hold everything a later step or the code
// after the loop reads that an earlier step wrote — except at the last
// boundary, which is never resumed from (FT's final field, PENNANT's
// densities are rewritten by the last step).  Two invariants make a
// boundary one: no fpe region is open and no window is reserved (Mark
// panics otherwise), and no message crosses it — everything sent in steps
// <= i is received in steps <= i.  The code before Resume runs on every
// execution and must do the same thing whatever the boundary.
type Stepped interface {
	App
	RunSteps(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *Steps) (RankOutput, error)
}

// Carry names a rank's loop-carried state.  An app builds it once, before
// Resume, from its working arrays and the addresses of its scalars.
type Carry struct {
	Vecs    [][]float64
	Scalars []*float64
	Ints    []*int
}

// RankState is one rank's state at a boundary: its fpe counters and a copy
// of its Carry.  A vector no step changed since the boundary the rank
// started from or last recorded is that boundary's array, not a copy (FT's
// spectrum, CG's x within a power iteration).
type RankState struct {
	Kinds   fpe.KindCounts
	Divs    uint64
	Vecs    [][]float64
	Scalars []float64
	Ints    []int
}

// Boundary is every rank's state at one step boundary.  Once an execution
// has filled it, it is only ever read.
type Boundary struct {
	Step  int
	Ranks []RankState
}

// NewBoundary returns an empty boundary for procs ranks, for an execution
// to fill.
func NewBoundary(step, procs int) *Boundary {
	return &Boundary{Step: step, Ranks: make([]RankState, procs)}
}

// StepPlan is what an execution does at its step boundaries.  A zero field
// does nothing.
type StepPlan struct {
	// From is the boundary every rank restores before running the steps
	// after it.
	From *Boundary
	// Record lists boundaries after From, by ascending Step, that the ranks
	// fill as they pass them.
	Record []*Boundary
	// Counts and Bytes, when set (a row and an entry per rank, as a golden
	// run sets both), receive each rank's op counts at every boundary —
	// Counts[r][i] after i steps — and the size of its Carry.
	Counts [][]fpe.Counts
	Bytes  []int
}

// LastClean returns the last boundary, up to last, at which no rank with a
// plan has run an op its plan injects into: every injection's Index is at
// least its rank's count of the injection's class there (counts as a
// StepPlan's Counts).
func LastClean(counts [][]fpe.Counts, plans map[int][]fpe.Injection, last int) int {
	for r, plan := range plans {
		for _, inj := range plan {
			for last > 0 && counts[r][last].Of(inj.Class) > inj.Index {
				last--
			}
		}
	}
	return last
}

// Steps is one rank's view of its execution's StepPlan.
type Steps struct {
	fc   *fpe.Ctx
	rank int
	plan *StepPlan
	next int        // the first entry of plan.Record this rank has not filled
	last *RankState // the state this rank restored or last recorded
}

// Resume restores the rank's carry and counters from the plan's From
// boundary and returns its step, or returns 0 to start at the beginning.
func (s *Steps) Resume(c *Carry) int {
	if s == nil {
		return 0
	}
	if s.plan.Counts != nil {
		kc, _ := s.fc.Boundary()
		s.plan.Counts[s.rank] = append(s.plan.Counts[s.rank], kc.Counts())
		s.plan.Bytes[s.rank] = 8 * c.floats()
	}
	b := s.plan.From
	if b == nil {
		return 0
	}
	s.last = &b.Ranks[s.rank]
	c.restore(s.last)
	s.fc.ResumeAt(s.last.Kinds, s.last.Divs)
	return b.Step
}

// Mark declares boundary i, the state after i steps.
func (s *Steps) Mark(i int, c *Carry) {
	if s == nil {
		return
	}
	kc, divs := s.fc.Boundary()
	if counts := s.plan.Counts; counts != nil {
		if len(counts[s.rank]) != i {
			panic(fmt.Sprintf("apps: Mark(%d) after %d boundaries", i, len(counts[s.rank])))
		}
		counts[s.rank] = append(counts[s.rank], kc.Counts())
	}
	if rec := s.plan.Record; s.next < len(rec) && rec[s.next].Step == i {
		rs := &rec[s.next].Ranks[s.rank]
		*rs = c.save(kc, divs, s.last)
		s.last = rs
		s.next++
	}
}

// floats is the number of values the carry holds.
func (c *Carry) floats() int {
	n := len(c.Scalars) + len(c.Ints)
	for _, v := range c.Vecs {
		n += len(v)
	}
	return n
}

// save copies the carry out, sharing prev's arrays (nil = none) where they
// hold the same bits.
func (c *Carry) save(kc fpe.KindCounts, divs uint64, prev *RankState) RankState {
	rs := RankState{Kinds: kc, Divs: divs, Vecs: make([][]float64, len(c.Vecs)),
		Scalars: make([]float64, len(c.Scalars)), Ints: make([]int, len(c.Ints))}
	for i, v := range c.Vecs {
		if prev != nil && sameBits(v, prev.Vecs[i]) {
			rs.Vecs[i] = prev.Vecs[i]
		} else {
			rs.Vecs[i] = slices.Clone(v)
		}
	}
	for i, p := range c.Scalars {
		rs.Scalars[i] = *p
	}
	for i, p := range c.Ints {
		rs.Ints[i] = *p
	}
	return rs
}

// restore copies a saved state back into the carry.  A state of another
// shape panics: it was recorded by another run.
func (c *Carry) restore(rs *RankState) {
	fits := len(rs.Vecs) == len(c.Vecs) && len(rs.Scalars) == len(c.Scalars) && len(rs.Ints) == len(c.Ints)
	for i := 0; fits && i < len(c.Vecs); i++ {
		fits = len(rs.Vecs[i]) == len(c.Vecs[i])
	}
	if !fits {
		panic("apps: a boundary's state does not fit the carry")
	}
	for i, v := range c.Vecs {
		copy(v, rs.Vecs[i])
	}
	for i, p := range c.Scalars {
		*p = rs.Scalars[i]
	}
	for i, p := range c.Ints {
		*p = rs.Ints[i]
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
