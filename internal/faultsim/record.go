package faultsim

import (
	"fmt"
	"time"

	"resmod/internal/stats"
)

// SummaryRecordVersion is the schema version of SummaryRecord, the stable
// JSON form of a campaign Summary used by the prediction service's result
// store.  Bump it whenever fields change meaning; Restore rejects records
// of any other version, which turns stale store entries into cache misses
// instead of silently wrong results.
const SummaryRecordVersion = 1

// SummaryRecord is the durable, versioned serialization of a Summary.
// It carries the raw tallies rather than the derived Rates (which Restore
// recomputes) and deliberately omits the Golden pointer: golden runs are
// cheap to recompute and are cached separately by exper.Session, while a
// record must stay small and self-contained on disk.
type SummaryRecord struct {
	// Version is the schema version (SummaryRecordVersion).
	Version int
	// Identity is the owning campaign's Campaign.Identity().
	Identity string
	// Tally holds the campaign's counts; its fields appear inline in the
	// JSON.
	Tally
	// TrialsDone and Abnormal mirror the Summary fields.
	TrialsDone uint64
	Abnormal   uint64
	// AvgFired is the mean executed-injection count per completed test.
	AvgFired float64
	// ElapsedNS is the campaign wall time in nanoseconds (kept so cached
	// summaries still report the paper's "fault injection time" axis).
	ElapsedNS int64
	// CI95 holds the Wilson 95% intervals of the three outcome rates —
	// the campaign's convergence report.  The field is additive (older
	// records decode with a zero value) and derived: Restore recomputes
	// rates from the raw tallies and never reads it.
	CI95 stats.RateIntervals
}

// Record captures the Summary as a SummaryRecord keyed by identity.
// Interrupted summaries have no stable record — their tallies cover an
// unspecified trial subset — so Record returns nil for them.
func (s *Summary) Record(identity string) *SummaryRecord {
	if s == nil || s.Interrupted {
		return nil
	}
	return &SummaryRecord{
		Version:    SummaryRecordVersion,
		Identity:   identity,
		Tally:      s.tally(),
		TrialsDone: s.TrialsDone,
		Abnormal:   s.Abnormal,
		AvgFired:   s.AvgFired,
		ElapsedNS:  int64(s.Elapsed),
		CI95:       s.Rates.Intervals95(),
	}
}

// Restore rebuilds the Summary a record was captured from (with a nil
// Golden).  It validates the schema version and the internal consistency
// of the tallies so a corrupt or stale store entry surfaces as an error —
// callers treat that as a cache miss — never as a subtly wrong Summary.
func (r *SummaryRecord) Restore() (*Summary, error) {
	if r.Version != SummaryRecordVersion {
		return nil, fmt.Errorf("faultsim: summary record version %d, want %d",
			r.Version, SummaryRecordVersion)
	}
	if err := r.Tally.check(r.TrialsDone); err != nil {
		return nil, fmt.Errorf("faultsim: summary record: %w", err)
	}
	sum := r.Tally.summary()
	sum.Elapsed = time.Duration(r.ElapsedNS)
	sum.AvgFired = r.AvgFired
	sum.Abnormal = r.Abnormal
	return sum, nil
}
