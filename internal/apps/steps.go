package apps

import (
	"fmt"
	"math"
	"slices"

	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

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
	// Hashes, set with Counts, receives each rank's Carry hash at every
	// boundary the same way.  With Check > 0 it is a golden run's instead:
	// a rank that reaches boundary Check with no injection pending and its
	// Carry hashing to Hashes[r][Check] has reconverged, and when the last
	// rank has, the execution stops there (ExecResult.Stopped), its rest
	// being the golden's.
	Hashes  [][]uint64
	Check   int
	matched int // ranks reconverged at Check
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

// Steps is one rank's view of its execution: the StepPlan's boundaries,
// and the working set it draws its arrays from.  An execution hands every
// app's Run one, with or without a plan.
//
// The step contract: when an app's run is a loop of steps, before its loop
// a rank calls st.Resume(carry), which says at which step to start, and
// after step i-1 it calls st.Mark(i, carry): boundary i is the state after
// i steps.  An app that keeps no such contract never calls them and runs
// from the start every time (the six paper apps all keep it).
//
// At a boundary the Carry must hold everything a later step or the code
// after the loop reads that an earlier step wrote — except at the last
// boundary, which is never resumed from (FT's final field, PENNANT's
// densities are rewritten by the last step).  Two invariants make a
// boundary one: no fpe region is open and no window is reserved (Mark
// panics otherwise), and no message crosses it — everything sent in steps
// <= i is received in steps <= i.  The code before Resume runs on every
// execution and must do the same thing whatever the boundary.
//
// A boundary check (StepPlan.Check) takes a run whose Carry equals the
// golden's at a boundary to run the golden's rest, so it assumes more: that
// no step after the boundary reads what an earlier step wrote outside the
// Carry.  Step 0 is the exception — MiniFE's stencil is built in step 0 and
// not carried, and resuming rebuilds it — so a run checks only when its
// step 0 ran clean.
type Steps struct {
	fc   *fpe.Ctx
	comm *simmpi.Comm
	rank int
	plan *StepPlan // nil: no boundary is restored or recorded
	set  *workingSet
	next int        // the first entry of plan.Record this rank has not filled
	last *RankState // the state this rank restored or last recorded
}

// Floats returns a zeroed array of n floats from the rank's working set:
// the one the rank's Arena kept from the same draw of the last execution
// of this shape, or a new one.  An app draws every per-run working array,
// and the State it returns, this way.  They are the arena's, valid until
// its next execution, so nothing a run returns may outlive that without a
// copy (see Arena).  On a nil *Steps it is make: a class-wide setup cache
// (MiniFE's operator) is built outside any execution.
func (s *Steps) Floats(n int) []float64 {
	var w *workingSet
	if s != nil {
		w = s.set
	}
	return w.draw(n)[:n] // inlined, this tells the caller the length
}

// Blocks returns k zeroed blocks of n floats each, carved from one array of
// Floats; the slice that holds them is the working set's too.
func (s *Steps) Blocks(k, n int) [][]float64 {
	flat := s.Floats(k * n)
	w := s.set
	if w.nb == len(w.blocks) {
		w.blocks = append(w.blocks, nil)
	}
	if cap(w.blocks[w.nb]) < k {
		w.blocks[w.nb] = make([][]float64, k)
	}
	b := w.blocks[w.nb][:k]
	w.nb++
	for i := range b {
		b[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return b
}

// workingSet is one rank's arrays, in the order its runs drew them: a run
// of the same shape draws the same sizes in the same order, so draw i
// reuses array i.
type workingSet struct {
	floats [][]float64
	blocks [][][]float64
	nf, nb int // the next draws
}

// draw returns the next array of the run's draws, n zeroed floats; on a
// nil *workingSet, a new one.
func (w *workingSet) draw(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	if w.nf == len(w.floats) {
		w.floats = append(w.floats, nil)
	}
	b := w.floats[w.nf]
	if cap(b) < n {
		b = make([]float64, n)
		w.floats[w.nf] = b
	}
	w.nf++
	b = b[:n]
	clear(b)
	return b
}

// rewind starts a run's draws from the first array.
func (w *workingSet) rewind() { w.nf, w.nb = 0, 0 }

// poison fills every array with NaN.
func (w *workingSet) poison() {
	for _, b := range w.floats {
		for i := range b[:cap(b)] {
			b[i] = math.NaN()
		}
	}
}

// Resume restores the rank's carry and counters from the plan's From
// boundary and returns its step, or returns 0 to start at the beginning.
func (s *Steps) Resume(c *Carry) int {
	if s.plan == nil {
		return 0
	}
	if s.plan.Counts != nil {
		kc, _ := s.fc.Boundary()
		s.count(0, kc, c)
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
	if s.plan == nil {
		return
	}
	kc, divs := s.fc.Boundary()
	if s.plan.Counts != nil {
		s.count(i, kc, c)
	}
	if rec := s.plan.Record; s.next < len(rec) && rec[s.next].Step == i {
		rs := &rec[s.next].Ranks[s.rank]
		*rs = c.save(kc, divs, s.last)
		s.last = rs
		s.next++
	}
	if p := s.plan; i == p.Check && s.fc.Pending() == 0 && c.hash() == p.Hashes[s.rank][i] {
		if p.matched++; p.matched == len(p.Hashes) {
			s.comm.Stop()
		}
	}
}

// count appends the rank's op counts and Carry hash at boundary i to the
// plan's.
func (s *Steps) count(i int, kc fpe.KindCounts, c *Carry) {
	counts := s.plan.Counts
	if len(counts[s.rank]) != i {
		panic(fmt.Sprintf("apps: Mark(%d) after %d boundaries", i, len(counts[s.rank])))
	}
	counts[s.rank] = append(counts[s.rank], kc.Counts())
	if h := s.plan.Hashes; h != nil {
		h[s.rank] = append(h[s.rank], c.hash())
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

// hash is hashFloats over the carry's words: its Vecs, then its Scalars
// and Ints as one word each.
func (c *Carry) hash() uint64 {
	h := uint64(fnvOffset)
	for _, v := range c.Vecs {
		h = hashFloats(h, v)
	}
	for _, p := range c.Scalars {
		h = (h ^ math.Float64bits(*p)) * fnvPrime
	}
	for _, p := range c.Ints {
		h = (h ^ uint64(*p)) * fnvPrime
	}
	return h
}

// fnvOffset is the FNV-1a offset basis hashFloats starts from.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashFloats folds s's length and then its float64 words, bit for bit,
// into the FNV-1a hash h.  For a fixed word each step is a bijection of h,
// so two inputs that differ in exactly one word always hash differently,
// and inputs that differ in more collide with odds of about 2^-64: a hash
// match is taken for bit identity.
func hashFloats(h uint64, s []float64) uint64 {
	h = (h ^ uint64(len(s))) * fnvPrime
	for _, v := range s {
		h = (h ^ math.Float64bits(v)) * fnvPrime
	}
	return h
}

// save copies the carry out, sharing prev's arrays (nil = none) where they
// hold the same bits.
func (c *Carry) save(kc fpe.KindCounts, divs uint64, prev *RankState) RankState {
	rs := RankState{Kinds: kc, Divs: divs, Vecs: make([][]float64, len(c.Vecs)),
		Scalars: make([]float64, len(c.Scalars)), Ints: make([]int, len(c.Ints))}
	for i, v := range c.Vecs {
		if prev != nil && SameBits(v, prev.Vecs[i]) {
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

// SameBits reports whether a and b hold the same float64 bit patterns
// (NaNs included): the bit identity a contaminated rank is measured
// against.
func SameBits(a, b []float64) bool {
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
