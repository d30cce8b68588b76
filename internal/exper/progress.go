package exper

import (
	"sync"

	"resmod/internal/telemetry"
)

// SchedulerStats is a point-in-time sample of the session's campaign
// scheduler: how many campaigns hold an execution slot, how many are
// waiting for one, and the shared trial-worker budget's occupancy.  The
// prediction service exposes it on /v1/status and stamps it into every
// prediction-kind progress event.
type SchedulerStats struct {
	// CampaignsRunning is the number of campaign-parallel slots in use
	// (campaigns actually executing trials or their golden runs).
	CampaignsRunning int `json:"campaigns_running"`
	// CampaignsQueued is the number of campaigns blocked waiting for a
	// slot.
	CampaignsQueued int `json:"campaigns_queued"`
	// CampaignSlots is the slot capacity (Config.CampaignParallel).
	CampaignSlots int `json:"campaign_slots"`
	// WorkerBudgetInUse/Size sample the shared trial-worker token pool.
	WorkerBudgetInUse int `json:"worker_budget_in_use"`
	WorkerBudgetSize  int `json:"worker_budget_size"`
}

// SchedulerStats samples the session's scheduler occupancy.  The numbers
// are instantaneous and unsynchronized with each other — an observation
// surface, not a scheduling input.
func (s *Session) SchedulerStats() SchedulerStats {
	return SchedulerStats{
		CampaignsRunning:  len(s.slots),
		CampaignsQueued:   int(s.waiting.Load()),
		CampaignSlots:     cap(s.slots),
		WorkerBudgetInUse: s.pool.InUse(),
		WorkerBudgetSize:  s.pool.Size(),
	}
}

// predictionProgress aggregates one prediction's campaign DAG into
// prediction-kind progress events: Done/Total count the DAG's stages
// (serial curve points, the small profile, the unique-region branch, the
// measured large run) and each event samples the session scheduler, so a
// subscriber sees both how far this prediction is and how busy the
// machine is.  nil (bus off) is valid and inert.
type predictionProgress struct {
	prog  *telemetry.Progress
	s     *Session
	key   string
	total int

	mu   sync.Mutex
	done int
}

// newPredictionProgress builds the aggregator and publishes the opening
// snapshot, or returns nil when the context carries no Progress bus.
func newPredictionProgress(prog *telemetry.Progress, s *Session, key string, total int) *predictionProgress {
	if prog == nil {
		return nil
	}
	pp := &predictionProgress{prog: prog, s: s, key: key, total: total}
	pp.publish(telemetry.StateRunning)
	return pp
}

// stageDone records one completed DAG stage and publishes.
func (pp *predictionProgress) stageDone() {
	if pp == nil {
		return
	}
	pp.mu.Lock()
	pp.done++
	pp.mu.Unlock()
	pp.publish(telemetry.StateRunning)
}

// finish publishes the terminal snapshot: done when the whole DAG
// completed, failed when any stage errored (including cancellation).
func (pp *predictionProgress) finish(err error) {
	if pp == nil {
		return
	}
	if err != nil {
		pp.publish(telemetry.StateFailed)
		return
	}
	pp.publish(telemetry.StateDone)
}

// publish posts one prediction-kind event in the given state.
func (pp *predictionProgress) publish(state string) {
	if pp == nil {
		return
	}
	st := pp.s.SchedulerStats()
	pp.mu.Lock()
	done := pp.done
	pp.mu.Unlock()
	pp.prog.Publish(telemetry.ProgressEvent{
		Kind:              telemetry.KindPrediction,
		Key:               pp.key,
		State:             state,
		Done:              uint64(done),
		Total:             uint64(pp.total),
		CampaignsRunning:  st.CampaignsRunning,
		CampaignsQueued:   st.CampaignsQueued,
		WorkerBudgetInUse: st.WorkerBudgetInUse,
		WorkerBudgetSize:  st.WorkerBudgetSize,
	})
}
