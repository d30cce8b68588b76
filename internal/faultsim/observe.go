package faultsim

import (
	"context"
	"time"

	"resmod/internal/stats"
	"resmod/internal/telemetry"
)

// Shard observation: the hooks the distributed tier uses to watch a
// shard run without touching it.  A worker installs a ShardObserver on
// the context before RunShardCtx so it can stream live tallies back to
// the coordinator; the coordinator folds those into campaign-level
// progress events with BuildProgressEvent.  Everything here is
// observation-only — observers see copies of the aggregate's commutative
// counts and cannot perturb RNG streams, scheduling, or results.

// ShardStatus is a point-in-time tally snapshot of one shard (or, from
// Merger.Tallies, of everything merged so far).  It is JSON-serializable:
// the worker→coordinator progress report carries one verbatim.
type ShardStatus struct {
	// Start and End delimit the observed trial range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Done counts completed trials; Success+SDC+Failure == Done.
	Done     uint64 `json:"done"`
	Success  uint64 `json:"success"`
	SDC      uint64 `json:"sdc"`
	Failure  uint64 `json:"failure"`
	Abnormal uint64 `json:"abnormal"`
	Retried  uint64 `json:"retried"`
}

// ShardObserver receives periodic ShardStatus snapshots while a shard
// runs.  It is called from the trial-recording path (no more often than
// the campaign's progress cadence) and once more with the final tallies;
// implementations must not block.
type ShardObserver func(ShardStatus)

// shardObsKey carries the observer in a context.  Campaign must stay
// comparable (its identity hashing depends on it), so the hook travels on
// context rather than as a Campaign field.
type shardObsKey struct{}

// WithShardObserver returns a context that makes RunShardCtx report live
// tallies to obs.  A nil obs returns ctx unchanged.
func WithShardObserver(ctx context.Context, obs ShardObserver) context.Context {
	if obs == nil {
		return ctx
	}
	return context.WithValue(ctx, shardObsKey{}, obs)
}

// shardObserverFrom extracts the context's observer, or nil.
func shardObserverFrom(ctx context.Context) ShardObserver {
	obs, _ := ctx.Value(shardObsKey{}).(ShardObserver)
	return obs
}

// Tallies returns the tallies merged so far as a ShardStatus over the
// whole campaign range — what a dispatcher combines with in-flight shard
// reports to publish honest distributed progress.
func (m *Merger) Tallies() ShardStatus {
	return m.agg.status(0, m.agg.trials)
}

// BuildProgressEvent assembles the campaign-kind progress event local
// runs and distributed dispatchers both publish: tallies from st, rate
// and ETA from ran trials over elapsed (ran excludes checkpoint-restored
// trials so a resumed campaign doesn't report a fantasy rate), and
// Wilson 95% intervals once any trial has an outcome.
func BuildProgressEvent(identity, state string, trials int, st ShardStatus, elapsed time.Duration, ran uint64) telemetry.ProgressEvent {
	ev := telemetry.ProgressEvent{
		Kind:     telemetry.KindCampaign,
		Key:      identity,
		State:    state,
		Done:     st.Done,
		Total:    uint64(trials),
		Success:  st.Success,
		SDC:      st.SDC,
		Failure:  st.Failure,
		Abnormal: st.Abnormal,
		Retried:  st.Retried,
	}
	ev.ElapsedSeconds = elapsed.Seconds()
	if ev.ElapsedSeconds > 0 && ran > 0 {
		ev.TrialsPerSec = float64(ran) / ev.ElapsedSeconds
		if remaining := uint64(trials) - st.Done; st.Done <= uint64(trials) {
			ev.ETASeconds = float64(remaining) / ev.TrialsPerSec
		}
	}
	if n := st.Success + st.SDC + st.Failure; n > 0 {
		counter := stats.Counter{Success: st.Success, SDC: st.SDC, Failure: st.Failure}
		iv := counter.Rates().Intervals95()
		ev.SuccessCI = &telemetry.CI{Lo: iv.Success.Lo, Hi: iv.Success.Hi}
		ev.SDCCI = &telemetry.CI{Lo: iv.SDC.Lo, Hi: iv.SDC.Hi}
		ev.FailureCI = &telemetry.CI{Lo: iv.Failure.Lo, Hi: iv.Failure.Hi}
	}
	return ev
}
