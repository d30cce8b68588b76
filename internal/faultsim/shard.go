package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"resmod/internal/telemetry"
)

// Shard execution: the distributed tier's unit of work.  A shard is a
// contiguous trial range [Start, End) of one campaign, executed in
// isolation (typically on another process) and returned as partial
// tallies.  Because every trial's RNG stream is split from the campaign
// seed by the *global* trial index — never by shard index or worker
// identity — the union of any disjoint shard cover of [0, Trials) merges
// into a Summary bit-identical to a single-node run, whatever the worker
// count, dispatch order or re-shard history.  The partial-tally carrier
// is the Checkpoint — a done-trial bitmap plus a Tally — so resuming a
// campaign and merging a shard are one operation, mergeDisjoint, and what
// comes back from a file or a worker is checked there once (the bitmap
// against the campaign and the trials already merged, the counts by
// Tally.check) before any of it is added.

// AbnormalTrial is one trial a shard abandoned after exhausting its
// retries — reported alongside the tallies so the coordinator can apply
// the campaign-wide MaxAbnormal budget with the same lowest-trial-index
// error reporting as a local run.
type AbnormalTrial struct {
	// Trial is the global trial index.
	Trial int
	// Err is the rendered harness error (errors do not survive JSON).
	Err string
}

// ShardResult is one executed shard's outcome: the partial tallies as a
// Checkpoint (Done bits exactly the shard's completed trials) plus the
// abnormal trials the shard abandoned.  The type is JSON-serializable —
// it is the wire payload a remote worker streams back.
type ShardResult struct {
	// Start and End echo the executed range.
	Start int
	End   int
	// Checkpoint holds the shard's tallies over the full campaign's
	// bitmap width, so merging is a plain bitwise OR plus count sums.
	Checkpoint *Checkpoint
	// Abnormal lists the trials abandoned after retries, if any.
	Abnormal []AbnormalTrial `json:",omitempty"`
}

// RunShardCtx executes trials [start, end) of the campaign against a
// precomputed golden and returns the shard's partial tallies.  It runs
// the same Campaign.prepared and the same runRange as RunAgainstCtx, so
// the embedded identity matches the coordinator's and the result is
// independent of how [0, Trials) was cut into shards.  Cancellation (or an
// exhausted Budget) aborts the shard with an error — a half-executed shard
// is the dispatcher's to retry, never to merge.
func RunShardCtx(ctx context.Context, c Campaign, golden *Golden, start, end int) (*ShardResult, error) {
	ctx = orBackground(ctx)
	c, err := c.prepared(golden)
	if err != nil {
		return nil, err
	}
	if start < 0 || end > c.Trials || start >= end {
		return nil, fmt.Errorf("faultsim: shard [%d,%d) outside campaign trials [0,%d)",
			start, end, c.Trials)
	}

	identity := c.Identity()
	tel := telemetry.From(ctx)
	ctx, span := tel.Tracer().Start(ctx, "shard",
		telemetry.String("id", identity),
		telemetry.Int("start", start), telemetry.Int("end", end),
		telemetry.Int("workers", c.Workers))
	defer span.End()

	// The aggregate spans the whole campaign's bitmap width so the
	// snapshot merges positionally; only [start, end) bits ever set.
	agg := newAggregate(c.Procs, c.Trials)
	// Live tallies for the dispatcher, at the campaign's progress cadence
	// and once more with the final counts.
	obs := shardObserverFrom(ctx)
	stopped := runRange(ctx, c, golden, agg, start, end, obs)
	if obs != nil {
		agg.observe(obs, start, end)
	}

	res := &ShardResult{Start: start, End: end, Checkpoint: agg.snapshot(identity)}
	for _, te := range agg.abnormalTrials() {
		res.Abnormal = append(res.Abnormal, AbnormalTrial{Trial: te.trial, Err: te.err.Error()})
	}
	// A shard that blew the abnormal budget on its own returns its partial
	// result — the coordinator applies the campaign-wide budget and fails
	// the campaign with the same lowest-trial-index error a local run
	// reports.  Any other incompleteness is an interruption: the shard
	// must not be merged, only retried.
	if len(res.Abnormal) <= c.MaxAbnormal &&
		res.Checkpoint.Completed+uint64(len(res.Abnormal)) < uint64(end-start) {
		return nil, fmt.Errorf("faultsim: shard [%d,%d) interrupted after %d trials: %w",
			start, end, res.Checkpoint.Completed, stopped)
	}
	span.SetAttr(telemetry.Attr{Key: "trials_done", Value: res.Checkpoint.Completed})
	return res, nil
}

// mergeDisjoint folds a resumed checkpoint — a snapshot that may cover any
// of the campaign's trials and abandoned none — into the aggregate.
func (a *aggregate) mergeDisjoint(ck *Checkpoint, identity string) error {
	return a.mergeShard(ck, identity, 0, a.trials, nil)
}

// mergeShard is the package's one validated merge: it folds the snapshot of
// trials [start, end), plus the trials that range abandoned, into the
// aggregate, all or nothing.  Under the aggregate's lock it checks that the
// snapshot belongs to this campaign; marks only trials inside its range and
// none already tallied or abandoned; carries a Tally consistent with its
// done bits; and abandons only trials of its range that are neither done
// nor listed twice.  A rejected snapshot leaves the aggregate untouched.
// All tallies are commutative integer counts, so merge order cannot affect
// the final Summary.
func (a *aggregate) mergeShard(ck *Checkpoint, identity string, start, end int, abnormal []AbnormalTrial) error {
	if ck == nil {
		return fmt.Errorf("%w: nil shard snapshot", ErrCheckpointMismatch)
	}
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("%w: snapshot version %d, want %d",
			ErrCheckpointMismatch, ck.Version, CheckpointVersion)
	}
	if ck.Identity != identity {
		return fmt.Errorf("%w: snapshot is of %q, campaign is %q",
			ErrCheckpointMismatch, ck.Identity, identity)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if start < 0 || end > a.trials || start >= end {
		return fmt.Errorf("%w: shard [%d,%d) outside campaign trials [0,%d)",
			ErrCheckpointMismatch, start, end, a.trials)
	}
	if ck.Trials != a.trials || len(ck.Done) != len(a.done) ||
		len(ck.Hist) != len(a.tally.Hist) || len(ck.Spread) != len(a.tally.Spread) {
		return fmt.Errorf("%w: snapshot shape does not fit the campaign", ErrCheckpointMismatch)
	}
	// taken marks the trials that need no further dispatch: tallied ones
	// and abandoned ones, which a local run likewise excludes from the
	// tallies rather than re-running.
	taken := slices.Clone(a.done)
	for _, te := range a.abnormal {
		taken[te.trial/64] |= 1 << (te.trial % 64)
	}
	var pop uint64
	for i, w := range ck.Done {
		if w&^wordMask(i, start, end) != 0 {
			return fmt.Errorf("%w: snapshot tallies trials outside [%d,%d)", ErrCheckpointMismatch, start, end)
		}
		if taken[i]&w != 0 {
			return fmt.Errorf("%w: shard overlaps already-merged trials", ErrCheckpointMismatch)
		}
		taken[i] |= w
		pop += uint64(bits.OnesCount64(w))
	}
	if pop != ck.Completed {
		return fmt.Errorf("%w: snapshot has %d done bits, %d completed", ErrCheckpointMismatch, pop, ck.Completed)
	}
	if err := ck.Tally.check(pop); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
	}
	for _, ab := range abnormal {
		t := ab.Trial
		if t < start || t >= end {
			return fmt.Errorf("%w: abnormal trial %d outside shard [%d,%d)",
				ErrCheckpointMismatch, t, start, end)
		}
		if taken[t/64]&(1<<(t%64)) != 0 {
			return fmt.Errorf("%w: abnormal trial %d is already accounted for", ErrCheckpointMismatch, t)
		}
		taken[t/64] |= 1 << (t % 64)
	}
	for i, w := range ck.Done {
		a.done[i] |= w
	}
	a.completed += pop
	a.tally.merge(&ck.Tally)
	a.fired += ck.Fired
	for _, ab := range abnormal {
		a.abnormal = append(a.abnormal, trialError{trial: ab.Trial, err: errors.New(ab.Err)})
	}
	return nil
}

// Merger accumulates disjoint shard results of one campaign into the
// Summary a single-node run would have produced.  It is safe for
// concurrent Merge calls (dispatchers merge as shards land): its only
// mutable state is the aggregate, which holds both halves of "needs no
// further dispatch" — the done bitmap and the abandoned-trial list.
type Merger struct {
	identity string
	maxAbn   int
	golden   *Golden
	start    time.Time
	agg      *aggregate
}

// NewMerger prepares a merger for the campaign (normalized first, so the
// identity matches what RunShardCtx embeds in its snapshots).
func NewMerger(c Campaign, golden *Golden) *Merger {
	c = c.Normalized()
	return &Merger{
		identity: c.Identity(),
		maxAbn:   c.MaxAbnormal,
		golden:   golden,
		start:    time.Now(),
		agg:      newAggregate(c.Procs, c.Trials),
	}
}

// Merge folds one shard result in, all or nothing: a result that belongs
// to a different campaign, claims a trial outside its own [Start, End),
// touches a trial already accounted for, or is internally inconsistent is
// rejected with the merger unchanged — so the dispatcher bug surfaces
// instead of corrupting counts, and a clean retry of the same range still
// merges.
func (m *Merger) Merge(res *ShardResult) error {
	if res == nil {
		return fmt.Errorf("%w: nil shard result", ErrCheckpointMismatch)
	}
	return m.agg.mergeShard(res.Checkpoint, m.identity, res.Start, res.End, res.Abnormal)
}

// wordMask returns the bits of bitmap word i that fall inside the trial
// range [start, end).
func wordMask(i, start, end int) uint64 {
	lo, hi := max(start-i*64, 0), min(end-i*64, 64)
	if lo >= hi {
		return 0
	}
	return ^uint64(0) >> (64 - (hi - lo)) << lo
}

// AbnormalExceeded reports whether the merged abnormal trials already
// blow the campaign's MaxAbnormal budget — the dispatcher's cue to stop
// dispatching and fail the campaign via Summary's deterministic error.
func (m *Merger) AbnormalExceeded() bool {
	m.agg.mu.Lock()
	defer m.agg.mu.Unlock()
	return len(m.agg.abnormal) > m.maxAbn
}

// Done returns how many trials are tallied so far.
func (m *Merger) Done() uint64 {
	return m.agg.doneCount()
}

// Summary builds the merged campaign Summary.  Incomplete coverage or an
// exceeded abnormal budget is an error, with the same deterministic
// lowest-trial-index reporting as a local run; the result is otherwise
// bit-identical (Elapsed aside, which is wall time by definition) to
// RunAgainstCtx over the full range.
func (m *Merger) Summary() (*Summary, error) {
	if err := m.agg.fatalError(m.maxAbn); err != nil {
		return nil, err
	}
	// Merge keeps tallied and abnormal trials disjoint and inside
	// [0, trials), so together they cover the campaign exactly when their
	// counts add up to it.
	if st := m.Tallies(); st.Done+st.Abnormal != uint64(m.agg.trials) {
		return nil, fmt.Errorf("faultsim: merged shards cover %d of %d trials", st.Done, m.agg.trials)
	}
	sum := m.agg.summary(m.golden)
	sum.Elapsed = time.Since(m.start)
	return sum, nil
}
