package telemetry

import (
	"sort"
	"sync"
)

// Progress event kinds.
const (
	// KindCampaign events snapshot one fault-injection deployment's
	// in-flight tallies (key: the campaign identity).
	KindCampaign = "campaign"
	// KindPrediction events aggregate one prediction's campaign DAG
	// across the concurrent scheduler (key: the prediction label).
	KindPrediction = "prediction"
	// KindAlert events announce alert-rule transitions (key: the rule
	// name, or rule/instance for wildcard rules); State carries the
	// alert state (pending/firing/resolved), not a lifecycle state.
	KindAlert = "alert"
)

// Progress event states.
const (
	StateRunning     = "running"
	StateDone        = "done"
	StateInterrupted = "interrupted"
	StateFailed      = "failed"
)

// CI is a confidence interval over a rate, JSON-ready for event streams.
type CI struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Width returns the interval width — the convergence measure operators
// watch (the paper's protocol keeps injecting until rates stabilize).
func (c CI) Width() float64 { return c.Hi - c.Lo }

// ProgressEvent is one live snapshot on the Progress bus.  Campaign
// events carry trial tallies and convergence; prediction events carry
// campaign-DAG occupancy.  Events are observations only: publishing one
// never changes campaign results, RNG streams, or identities.
type ProgressEvent struct {
	// Seq is the bus-assigned publication sequence number (monotone per
	// bus; reassigned when an event is forwarded to a parent bus).
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// Key identifies the tracked unit: a campaign identity (cid:v3/…)
	// or a prediction label.
	Key string `json:"key"`
	// State is one of StateRunning/StateDone/StateInterrupted/StateFailed.
	State string `json:"state"`

	// Done and Total count trials for campaign events and campaign
	// stages for prediction events.
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`

	// Campaign-kind fields: per-outcome tallies and resilience counters.
	Success  uint64 `json:"success,omitempty"`
	SDC      uint64 `json:"sdc,omitempty"`
	Failure  uint64 `json:"failure,omitempty"`
	Abnormal uint64 `json:"abnormal,omitempty"`
	Retried  uint64 `json:"retried,omitempty"`

	// ElapsedSeconds is the wall time since this run started (excluding
	// any prior checkpointed run); TrialsPerSec and ETASeconds derive
	// from it and the trials completed in this run.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	TrialsPerSec   float64 `json:"trials_per_sec,omitempty"`
	ETASeconds     float64 `json:"eta_seconds,omitempty"`

	// SuccessCI/SDCCI/FailureCI are Wilson 95% intervals over the rates
	// observed so far (nil until at least one trial is tallied).
	SuccessCI *CI `json:"success_ci,omitempty"`
	SDCCI     *CI `json:"sdc_ci,omitempty"`
	FailureCI *CI `json:"failure_ci,omitempty"`

	// Prediction-kind fields: the campaign DAG's scheduler occupancy.
	CampaignsRunning int `json:"campaigns_running,omitempty"`
	CampaignsQueued  int `json:"campaigns_queued,omitempty"`
	// WorkerBudgetInUse/Size sample the session's shared trial-worker
	// budget at publication time.
	WorkerBudgetInUse int `json:"worker_budget_in_use,omitempty"`
	WorkerBudgetSize  int `json:"worker_budget_size,omitempty"`
}

// Ratio returns Done/Total (0 when Total is 0).
func (e ProgressEvent) Ratio() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Done) / float64(e.Total)
}

// Terminal reports whether the event closes its key's lifecycle.
func (e ProgressEvent) Terminal() bool { return e.State != StateRunning }

// Progress is the live-progress event bus: publishers (campaign loops,
// prediction drivers) post snapshots; subscribers (the SSE endpoint, the
// CLI renderer) receive them over bounded channels.  A full subscriber
// drops its oldest buffered event rather than blocking the publisher, so
// a stalled consumer can never slow a campaign.  The bus keeps the last
// event per key for replay-on-subscribe and for gauge exposition.
//
// A nil *Progress is valid everywhere and inert, mirroring *Tracer: the
// instrumented hot path pays one nil check when progress is off.
type Progress struct {
	parent *Progress // set before concurrent use; events are re-published there

	mu   sync.Mutex
	seq  uint64
	last map[string]ProgressEvent
	subs map[*ProgressSub]struct{}
}

// NewProgress creates an empty bus.
func NewProgress() *Progress {
	return &Progress{
		last: make(map[string]ProgressEvent),
		subs: make(map[*ProgressSub]struct{}),
	}
}

// ForwardTo re-publishes every event onto parent as well — how the
// prediction service gives each job its own bus (scoped SSE streams)
// while a process-wide bus keeps the aggregate view for /metrics.  Call
// before the bus is shared between goroutines.
func (p *Progress) ForwardTo(parent *Progress) {
	if p != nil {
		p.parent = parent
	}
}

// Publish posts one event: assigns its sequence number, records it as
// the key's latest snapshot, and offers it to every subscriber without
// ever blocking.  Nil-safe no-op.
func (p *Progress) Publish(ev ProgressEvent) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.seq++
	ev.Seq = p.seq
	p.last[ev.Kind+"\x00"+ev.Key] = ev
	for s := range p.subs {
		s.push(ev)
	}
	parent := p.parent
	p.mu.Unlock()
	parent.Publish(ev)
}

// Subscribe registers a consumer with the given channel capacity (a
// minimum is enforced) and replays the latest snapshot of every known
// key, oldest first, so a late subscriber — an SSE client connecting
// mid-job — starts from current state instead of silence.  Nil-safe: a
// nil bus returns a nil subscription whose Events channel is nil (blocks
// forever in select) and whose Close is a no-op.
func (p *Progress) Subscribe(buf int) *ProgressSub {
	if p == nil {
		return nil
	}
	if buf < 16 {
		buf = 16
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &ProgressSub{p: p, ch: make(chan ProgressEvent, buf+len(p.last))}
	for _, ev := range p.sortedLastLocked() {
		s.ch <- ev
	}
	p.subs[s] = struct{}{}
	return s
}

// Latest returns the newest event of every key, ordered by publication
// sequence — the replay set, also used for gauge exposition.  Nil-safe.
func (p *Progress) Latest() []ProgressEvent {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sortedLastLocked()
}

// sortedLastLocked copies the last-event map in sequence order; callers
// hold p.mu.
func (p *Progress) sortedLastLocked() []ProgressEvent {
	evs := make([]ProgressEvent, 0, len(p.last))
	for _, ev := range p.last {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// ProgressSub is one subscription.  Read events from Events(); call
// Close when done.
type ProgressSub struct {
	p  *Progress
	ch chan ProgressEvent

	mu      sync.Mutex
	dropped uint64
}

// Events returns the subscription's channel (nil for a nil subscription,
// which blocks forever in a select — the caller's other cases still
// fire).
func (s *ProgressSub) Events() <-chan ProgressEvent {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns how many events were discarded because the buffer was
// full — a consumer-side lag indicator, never a publisher-side stall.
func (s *ProgressSub) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus.  Nil-safe; idempotent.
func (s *ProgressSub) Close() {
	if s == nil {
		return
	}
	s.p.mu.Lock()
	delete(s.p.subs, s)
	s.p.mu.Unlock()
}

// push offers ev without blocking: when the buffer is full the oldest
// buffered event is dropped to make room.  Called with the bus lock
// held, so there is exactly one concurrent pusher.
func (s *ProgressSub) push(ev ProgressEvent) {
	for {
		select {
		case s.ch <- ev:
			return
		default:
		}
		select {
		case <-s.ch:
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
		default:
			// A concurrent reader emptied the channel between the two
			// selects; the send will succeed on the next loop.
		}
	}
}
