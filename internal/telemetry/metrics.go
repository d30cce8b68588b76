package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket bounds, in seconds.  Trials range from microseconds
// (tiny classes, warm caches) to seconds (large ranks under -race);
// campaigns from milliseconds to tens of minutes at paper-scale trial
// counts.
var (
	TrialBuckets    = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}
	CampaignBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 15, 60, 300, 1800}
)

// Histogram is a fixed-bucket histogram safe for concurrent observation.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // one per bound, plus the +Inf overflow at the end
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time copy of a histogram.  Counts are
// per-bucket (not cumulative); Prometheus exposition accumulates them.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Recorder counts what the campaign machinery does: lock-free counters
// plus trial-latency and campaign-duration histograms.  The server and
// the worker expose it as Prometheus families (Register); the CLI renders
// it as an end-of-run summary block.  Methods are safe for concurrent use
// and cheap — TrialDone sits on the campaign hot path, once per
// fault-injection test — and a nil *Recorder records nothing, the
// contract *Tracer and *Progress already have.
type Recorder struct {
	trialSuccess atomic.Uint64
	trialSDC     atomic.Uint64
	trialFailure atomic.Uint64
	trialOther   atomic.Uint64
	abnormal     atomic.Uint64
	retried      atomic.Uint64
	reconverged  atomic.Uint64
	goldens      atomic.Uint64
	goldenMicros atomic.Uint64
	checkpoints  atomic.Uint64
	campaigns    atomic.Uint64

	trialLat *Histogram
	campDur  *Histogram
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		trialLat: NewHistogram(TrialBuckets),
		campDur:  NewHistogram(CampaignBuckets),
	}
}

// TrialDone records one tallied trial: its outcome ("success", "sdc",
// "failure") and its wall time (including any abnormal retries).
func (r *Recorder) TrialDone(outcome string, d time.Duration) {
	if r == nil {
		return
	}
	switch outcome {
	case "success":
		r.trialSuccess.Add(1)
	case "sdc":
		r.trialSDC.Add(1)
	case "failure":
		r.trialFailure.Add(1)
	default:
		r.trialOther.Add(1)
	}
	r.trialLat.Observe(d.Seconds())
}

// TrialAbnormal records a trial abandoned after harness errors.
func (r *Recorder) TrialAbnormal() {
	if r != nil {
		r.abnormal.Add(1)
	}
}

// TrialReconverged records one trial that stopped early, its state back
// on the golden's.
func (r *Recorder) TrialReconverged() {
	if r != nil {
		r.reconverged.Add(1)
	}
}

// TrialRetried records one retry of an abnormal trial.
func (r *Recorder) TrialRetried() {
	if r != nil {
		r.retried.Add(1)
	}
}

// GoldenRun records one fault-free reference execution.
func (r *Recorder) GoldenRun(d time.Duration) {
	if r != nil {
		r.goldens.Add(1)
		r.goldenMicros.Add(uint64(d.Microseconds()))
	}
}

// CheckpointWrite records one campaign checkpoint snapshot written.
func (r *Recorder) CheckpointWrite() {
	if r != nil {
		r.checkpoints.Add(1)
	}
}

// CampaignDone records one completed (or interrupted) campaign execution
// and its wall time.
func (r *Recorder) CampaignDone(d time.Duration) {
	if r != nil {
		r.campaigns.Add(1)
		r.campDur.Observe(d.Seconds())
	}
}

// Register declares the engine families on reg — the one declaration the
// server's and the worker's /metrics share.  resmod_campaign_trials_total
// and the outcome-labelled resmod_trial_total read the same four
// counters, so they agree whenever no trial is tallied between the two
// reads (always, once the engine is idle).  A nil recorder declares
// nothing.
func (r *Recorder) Register(reg *Registry) {
	if r == nil {
		return
	}
	reg.CounterFunc("resmod_campaign_trials_total",
		"Fault-injection trials actually executed (cache hits excluded).",
		Value(func() uint64 {
			return r.trialSuccess.Load() + r.trialSDC.Load() + r.trialFailure.Load() + r.trialOther.Load()
		}))
	reg.CounterFunc("resmod_trial_total", "Fault-injection trials executed, by outcome.", func(e *Emitter) {
		e.Add(float64(r.trialSuccess.Load()), "outcome", "success")
		e.Add(float64(r.trialSDC.Load()), "outcome", "sdc")
		e.Add(float64(r.trialFailure.Load()), "outcome", "failure")
		e.Add(float64(r.trialOther.Load()), "outcome", "other")
	})
	reg.CounterFunc("resmod_trial_reconverged_total",
		"Trials stopped early because their state had reconverged to the golden run's.", Value(r.reconverged.Load))
	reg.CounterFunc("resmod_trial_abnormal_total",
		"Trials abandoned after repeated harness errors.", Value(r.abnormal.Load))
	reg.CounterFunc("resmod_trial_retried_total", "Retries of abnormal trials.", Value(r.retried.Load))
	reg.CounterFunc("resmod_golden_runs_total",
		"Fault-free reference executions computed.", Value(r.goldens.Load))
	reg.CounterFunc("resmod_checkpoint_writes_total",
		"Campaign checkpoint snapshots written.", Value(r.checkpoints.Load))
	reg.HistogramFunc("resmod_trial_duration_seconds",
		"Wall time of individual fault-injection trials.",
		func(e *Emitter) { e.Hist(r.trialLat.Snapshot()) })
	reg.HistogramFunc("resmod_campaign_duration_seconds", "Wall time of executed campaigns.",
		func(e *Emitter) { e.Hist(r.campDur.Snapshot()) })
}

// Snapshot is a consistent-enough copy of a Recorder for exposition (each
// counter is read atomically; cross-counter skew is bounded by in-flight
// trials).
type Snapshot struct {
	TrialSuccess     uint64
	TrialSDC         uint64
	TrialFailure     uint64
	TrialOther       uint64
	TrialsAbnormal   uint64
	TrialsRetried    uint64
	Reconverged      uint64
	GoldenRuns       uint64
	GoldenSeconds    float64
	CheckpointWrites uint64
	Campaigns        uint64
	TrialLatency     HistSnapshot
	CampaignDuration HistSnapshot
}

// Snapshot copies the recorder's current state.
func (r *Recorder) Snapshot() Snapshot {
	return Snapshot{
		TrialSuccess:     r.trialSuccess.Load(),
		TrialSDC:         r.trialSDC.Load(),
		TrialFailure:     r.trialFailure.Load(),
		TrialOther:       r.trialOther.Load(),
		TrialsAbnormal:   r.abnormal.Load(),
		TrialsRetried:    r.retried.Load(),
		Reconverged:      r.reconverged.Load(),
		GoldenRuns:       r.goldens.Load(),
		GoldenSeconds:    float64(r.goldenMicros.Load()) / 1e6,
		CheckpointWrites: r.checkpoints.Load(),
		Campaigns:        r.campaigns.Load(),
		TrialLatency:     r.trialLat.Snapshot(),
		CampaignDuration: r.campDur.Snapshot(),
	}
}

// TrialsTotal is the number of tallied trials: the sum over the outcome
// counters.
func (s Snapshot) TrialsTotal() uint64 {
	return s.TrialSuccess + s.TrialSDC + s.TrialFailure + s.TrialOther
}

// Empty reports whether the snapshot recorded no engine work at all.
func (s Snapshot) Empty() bool {
	return s.TrialsTotal() == 0 && s.GoldenRuns == 0 && s.Campaigns == 0 &&
		s.TrialsAbnormal == 0
}

// WriteSummary renders the end-of-run telemetry block the CLI prints
// after experiments and campaigns.
func WriteSummary(w io.Writer, s Snapshot) {
	fmt.Fprintln(w, "== telemetry ==")
	fmt.Fprintf(w, "campaigns:   %d executed, %s total wall time (mean %s)\n",
		s.Campaigns, seconds(s.CampaignDuration.Sum), seconds(s.CampaignDuration.Mean()))
	fmt.Fprintf(w, "trials:      %d (success %d, sdc %d, failure %d), mean %s/trial, %d reconverged\n",
		s.TrialsTotal(), s.TrialSuccess, s.TrialSDC, s.TrialFailure,
		seconds(s.TrialLatency.Mean()), s.Reconverged)
	if s.TrialsAbnormal > 0 || s.TrialsRetried > 0 {
		fmt.Fprintf(w, "abnormal:    %d trials abandoned, %d retries\n",
			s.TrialsAbnormal, s.TrialsRetried)
	}
	fmt.Fprintf(w, "goldens:     %d runs, %s\n", s.GoldenRuns, seconds(s.GoldenSeconds))
	if s.CheckpointWrites > 0 {
		fmt.Fprintf(w, "checkpoints: %d writes\n", s.CheckpointWrites)
	}
}

// seconds renders a float seconds value as a rounded duration.
func seconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
