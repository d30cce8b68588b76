package dist

import (
	"sync"
	"time"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// distProgress publishes one distributed campaign's progress: merged
// tallies from the Merger plus the latest tally of every chunk in flight,
// as the same campaign-kind ProgressEvents a local run publishes — so SSE
// streams, /v1/status and TTY bars keep moving while the trials run on
// other machines.  A chunk's tally arrives through the ShardObserver its
// runner was handed, which is called only while that runner holds the
// chunk: a remote worker's frames are read off the dispatch's own
// connection, a local shard's snapshots come from its own trial loop.  So
// a requeued chunk's abandoned attempt has no way to report, and trials a
// survivor re-executes are never counted twice.  All methods are nil-safe;
// newDistProgress returns nil when no bus is listening, and the whole
// apparatus costs nothing.
type distProgress struct {
	m *faultsim.Merger
	// emit posts one campaign-kind event for the given combined tallies.
	emit func(state string, st faultsim.ShardStatus)

	mu       sync.Mutex
	inflight map[[2]int]faultsim.ShardStatus
	// high is the largest Done published so far.
	high uint64
}

func newDistProgress(prog *telemetry.Progress, identity string, trials int, m *faultsim.Merger) *distProgress {
	if prog == nil {
		return nil
	}
	start := time.Now()
	return &distProgress{
		m: m,
		// Distributed campaigns never resume from a checkpoint, so every
		// done trial ran this run and the rate/ETA cover the whole count.
		emit: func(state string, st faultsim.ShardStatus) {
			prog.Publish(faultsim.BuildProgressEvent(identity, state, trials, st, time.Since(start), st.Done))
		},
		inflight: make(map[[2]int]faultsim.ShardStatus),
	}
}

// observe returns the observer one run of chunk r reports its live
// tallies to (nil when progress is off).
func (dp *distProgress) observe(r [2]int) faultsim.ShardObserver {
	if dp == nil {
		return nil
	}
	return func(st faultsim.ShardStatus) {
		dp.mu.Lock()
		dp.inflight[r] = st
		dp.mu.Unlock()
		dp.publish(telemetry.StateRunning)
	}
}

// release drops chunk r's in-flight tally once its run has ended: a
// result about to merge must leave the in-flight view before the merged
// tallies gain it, and a failed run's trials will execute again.
func (dp *distProgress) release(r [2]int) {
	if dp == nil {
		return
	}
	dp.mu.Lock()
	delete(dp.inflight, r)
	dp.mu.Unlock()
}

// publish posts the combined (merged + in-flight) tallies in the given
// state.  Progress never runs backwards: a failed chunk's in-flight tally
// leaves the sum until a survivor catches up, so a running snapshot below
// the last published one is skipped.  Events are posted under the lock so
// they reach the bus in the order they were judged.
func (dp *distProgress) publish(state string) {
	if dp == nil {
		return
	}
	st := dp.m.Tallies()
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for _, s := range dp.inflight {
		st.Done += s.Done
		st.Success += s.Success
		st.SDC += s.SDC
		st.Failure += s.Failure
		st.Abnormal += s.Abnormal
		st.Retried += s.Retried
	}
	if state == telemetry.StateRunning && st.Done < dp.high {
		return
	}
	dp.high = max(dp.high, st.Done)
	dp.emit(state, st)
}

// finish publishes the terminal state.
func (dp *distProgress) finish(err error, canceled bool) {
	state := telemetry.StateDone
	switch {
	case canceled:
		state = telemetry.StateInterrupted
	case err != nil:
		state = telemetry.StateFailed
	}
	dp.publish(state)
}
