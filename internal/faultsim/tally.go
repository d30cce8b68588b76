package faultsim

import (
	"fmt"
	"maps"
	"slices"

	"resmod/internal/stats"
)

// Tally is a campaign's counts — everything the model reads from a
// deployment: the outcome totals (the FI rates), Hist (r'_x, Eq. 5) and
// ByContamination (FI_small_par_x, hence α_x).  It is declared once: the
// live aggregate holds one, and Checkpoint and SummaryRecord embed one, so
// its fields appear inline in both JSON formats.  Every count is an
// integer merged commutatively, which is what makes resume and shard
// merging bit-identical.
type Tally struct {
	// Counter holds the Success, SDC and Failure outcome tallies.
	stats.Counter
	// Hist is the contamination histogram counts (bin x-1 = x ranks);
	// Failure tests, having no final state, are not profiled.
	Hist []uint64
	// ByContamination holds the outcome counters conditioned on
	// contamination count.
	ByContamination map[int]stats.Counter
	// Spread is the SpreadByDistance tally.
	Spread []uint64
}

func newTally(procs int) Tally {
	return Tally{
		Hist:            make([]uint64, procs),
		ByContamination: make(map[int]stats.Counter),
		Spread:          make([]uint64, procs/2+1),
	}
}

// add tallies one completed trial.
func (t *Tally) add(rec TrialRecord) {
	if rec.Outcome == Failure {
		t.Failure++
		return
	}
	x := clampCont(rec.Contaminated, len(t.Hist))
	bc := t.ByContamination[x]
	if rec.Outcome == Success {
		t.Success++
		bc.Success++
	} else {
		t.SDC++
		bc.SDC++
	}
	t.ByContamination[x] = bc
	t.Hist[x-1]++
	for _, d := range rec.Distances {
		t.Spread[d]++
	}
}

// merge adds o's counts into t.  The caller has checked o and that its
// Hist and Spread are as long as t's.
func (t *Tally) merge(o *Tally) {
	t.Counter.Merge(o.Counter)
	for i, n := range o.Hist {
		t.Hist[i] += n
	}
	for i, n := range o.Spread {
		t.Spread[i] += n
	}
	for x, bc := range o.ByContamination {
		dst := t.ByContamination[x]
		dst.Merge(bc)
		t.ByContamination[x] = dst
	}
}

func (t *Tally) clone() Tally {
	return Tally{
		Counter:         t.Counter,
		Hist:            slices.Clone(t.Hist),
		ByContamination: maps.Clone(t.ByContamination),
		Spread:          slices.Clone(t.Spread),
	}
}

// check is the package's one tally validator, run wherever a Tally comes
// in from outside the process: checkpoint resume, a worker's shard reply,
// a store record.  It holds exactly for tallies built by add over done
// trials: the outcomes sum to done, Hist profiles every non-Failure test,
// and ByContamination splits each occupied Hist bin — and nothing else —
// into its Success and SDC tests.  Every comparison is against a remainder
// rather than a sum, so counts near 2^64 cannot wrap their way through.
// Spread (and a checkpoint's Fired) have no such cross-sum; see DESIGN §7.
func (t *Tally) check(done uint64) error {
	if t.Success > done || t.SDC > done-t.Success || t.Failure != done-t.Success-t.SDC {
		return fmt.Errorf("outcomes %+v do not sum to %d trials", t.Counter, done)
	}
	left := t.Success + t.SDC
	for _, n := range t.Hist {
		if n > left {
			return fmt.Errorf("histogram %v covers more than the %d non-failure tests", t.Hist, t.Success+t.SDC)
		}
		left -= n
	}
	if left != 0 {
		return fmt.Errorf("histogram %v misses %d of the %d non-failure tests", t.Hist, left, t.Success+t.SDC)
	}
	var cond stats.Counter
	for x, bc := range t.ByContamination {
		if x < 1 || x > len(t.Hist) || t.Hist[x-1] == 0 || bc.Failure != 0 ||
			bc.Success > t.Hist[x-1] || bc.SDC != t.Hist[x-1]-bc.Success {
			return fmt.Errorf("conditional counter %d %+v does not split its histogram bin (histogram %v)", x, bc, t.Hist)
		}
		cond.Merge(bc)
	}
	if cond.Success != t.Success || cond.SDC != t.SDC {
		return fmt.Errorf("conditional counters sum to %+v, outcomes are %+v", cond, t.Counter)
	}
	return nil
}

// summary builds the Summary fields the tally determines, on copies.
func (t *Tally) summary() *Summary {
	sum := &Summary{
		Rates:            t.Rates(),
		Counts:           t.Counter,
		Hist:             &stats.Hist{Counts: slices.Clone(t.Hist)},
		ByContamination:  make(map[int]*stats.Counter, len(t.ByContamination)),
		SpreadByDistance: slices.Clone(t.Spread),
		TrialsDone:       t.Total(),
	}
	for x, bc := range t.ByContamination {
		sum.ByContamination[x] = &bc
	}
	return sum
}

// tally is summary's inverse: the counts behind a Summary, on copies.
func (s *Summary) tally() Tally {
	t := Tally{
		Counter:         s.Counts,
		ByContamination: make(map[int]stats.Counter, len(s.ByContamination)),
		Spread:          slices.Clone(s.SpreadByDistance),
	}
	if s.Hist != nil {
		t.Hist = slices.Clone(s.Hist.Counts)
	}
	for x, bc := range s.ByContamination {
		if bc != nil {
			t.ByContamination[x] = *bc
		}
	}
	return t
}
