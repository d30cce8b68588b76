package dist

import (
	"fmt"
	"sync"
	"time"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Coordinator-side live progress for distributed campaigns.  Each
// dispatch attempt gets a single-use token; the worker streams
// ShardProgressReports carrying that token to POST /v1/shards/progress,
// and the coordinator folds the latest in-flight tallies together with
// everything already merged into the same campaign-kind ProgressEvents a
// local run publishes — so SSE streams, /v1/status and TTY bars keep
// moving while the trials run on other machines.  Tokens are retired
// when their chunk merges or is requeued, so a report from a dead
// worker's abandoned attempt can never double-count trials that a
// survivor re-executes.

// registerProgress allocates a dispatch-attempt token routing reports to
// fn.
func (p *Pool) registerProgress(fn func(ShardProgressReport)) string {
	p.progMu.Lock()
	defer p.progMu.Unlock()
	p.progSeq++
	token := fmt.Sprintf("t%d", p.progSeq)
	if p.progSinks == nil {
		p.progSinks = make(map[string]func(ShardProgressReport))
	}
	p.progSinks[token] = fn
	return token
}

// unregisterProgress retires a token; later reports carrying it count as
// stale and are dropped.
func (p *Pool) unregisterProgress(token string) {
	if token == "" {
		return
	}
	p.progMu.Lock()
	delete(p.progSinks, token)
	p.progMu.Unlock()
}

// ReportProgress routes one worker report to its campaign's tracker.
// False means the token is unknown — the dispatch attempt was already
// merged, requeued, or belongs to a previous coordinator life.
func (p *Pool) ReportProgress(rep ShardProgressReport) bool {
	p.progMu.Lock()
	fn := p.progSinks[rep.Token]
	p.progMu.Unlock()
	if fn == nil {
		p.progressStale.Add(1)
		return false
	}
	p.progressReports.Add(1)
	fn(rep)
	return true
}

// distProgress publishes one distributed campaign's progress: merged
// tallies from the Merger plus the latest report of every in-flight
// dispatch attempt.  All methods are nil-safe; newDistProgress returns
// nil when no bus is listening, and the whole apparatus costs nothing.
type distProgress struct {
	pool *Pool
	m    *faultsim.Merger
	// emit posts one campaign-kind event for the given combined tallies.
	emit func(state string, st faultsim.ShardStatus)

	mu       sync.Mutex
	inflight map[string]faultsim.ShardStatus
}

func newDistProgress(pool *Pool, prog *telemetry.Progress, identity string, trials int, m *faultsim.Merger) *distProgress {
	if prog == nil {
		return nil
	}
	start := time.Now()
	return &distProgress{
		pool: pool, m: m,
		// Distributed campaigns never resume from a checkpoint, so every
		// done trial ran this run and the rate/ETA cover the whole count.
		emit: func(state string, st faultsim.ShardStatus) {
			prog.Publish(faultsim.BuildProgressEvent(identity, state, trials, st, time.Since(start), st.Done))
		},
		inflight: make(map[string]faultsim.ShardStatus),
	}
}

// attach opens one dispatch attempt and returns its token ("" when
// progress is off).
func (dp *distProgress) attach() string {
	if dp == nil {
		return ""
	}
	token := dp.pool.registerProgress(dp.report)
	dp.mu.Lock()
	dp.inflight[token] = faultsim.ShardStatus{}
	dp.mu.Unlock()
	return token
}

// report folds one live report into the in-flight view and publishes.
// Reports for attempts no longer in flight are dropped — the
// no-double-count guarantee after a chunk is requeued.
func (dp *distProgress) report(rep ShardProgressReport) {
	if dp == nil {
		return
	}
	dp.mu.Lock()
	if _, ok := dp.inflight[rep.Token]; !ok {
		dp.mu.Unlock()
		return
	}
	dp.inflight[rep.Token] = rep.Status
	dp.mu.Unlock()
	dp.publish(telemetry.StateRunning)
}

// retire abandons a dispatch attempt whose chunk was requeued: its
// reported tallies leave the combined view before a survivor re-executes
// the same trials.
func (dp *distProgress) retire(token string) {
	if dp == nil || token == "" {
		return
	}
	dp.pool.unregisterProgress(token)
	dp.mu.Lock()
	delete(dp.inflight, token)
	dp.mu.Unlock()
}

// settle resolves a dispatch attempt whose result just merged, and
// publishes — the merged tallies now cover the chunk exactly.
func (dp *distProgress) settle(token string) {
	if dp == nil {
		return
	}
	dp.retire(token)
	dp.publish(telemetry.StateRunning)
}

// publish posts the combined (merged + in-flight) tallies in the given
// state.
func (dp *distProgress) publish(state string) {
	if dp == nil {
		return
	}
	st := dp.m.Tallies()
	dp.mu.Lock()
	for _, s := range dp.inflight {
		st.Done += s.Done
		st.Success += s.Success
		st.SDC += s.SDC
		st.Failure += s.Failure
		st.Abnormal += s.Abnormal
		st.Retried += s.Retried
	}
	dp.mu.Unlock()
	dp.emit(state, st)
}

// finish retires every remaining token and publishes the terminal state.
func (dp *distProgress) finish(err error, canceled bool) {
	if dp == nil {
		return
	}
	dp.mu.Lock()
	for token := range dp.inflight {
		dp.pool.unregisterProgress(token)
		delete(dp.inflight, token)
	}
	dp.mu.Unlock()
	state := telemetry.StateDone
	switch {
	case canceled:
		state = telemetry.StateInterrupted
	case err != nil:
		state = telemetry.StateFailed
	}
	dp.publish(state)
}
