package server

import (
	"net/http"
	"time"

	"resmod/internal/telemetry"
)

// Built-in alert thresholds.  These are deliberately conservative
// defaults for a service whose jobs run minutes: they page on sustained
// operational damage (shedding, silent workers, frozen campaigns), not
// on single-sample noise — every rule carries a For duration and the
// rate-based ones a hysteresis clear level.
const (
	// shedRateThreshold is sustained shed responses per second before
	// the shed-rate alert trips (clear at half).
	shedRateThreshold = 1.0
	// queueSaturationFire/Clear bound the queue-saturation hysteresis.
	queueSaturationFire  = 0.9
	queueSaturationClear = 0.7
	// workerFlapRate is alive↔dead transitions per second that count as
	// flapping (≈ one flap per 20 s, sustained).
	workerFlapRate = 0.05
	// dispatchFailureRate is shard requeues per second before the
	// dist-dispatch-failures alert trips.
	dispatchFailureRate = 0.05
)

// BuiltinRules is the server's default alert rule set, scaled to the
// sampling period: For durations are expressed in samples so a test
// server sampling every 10ms fires in tens of milliseconds while a
// production server sampling every 10s fires in tens of seconds.
func BuiltinRules(sampleEvery time.Duration) []telemetry.Rule {
	if sampleEvery <= 0 {
		sampleEvery = 10 * time.Second
	}
	forSamples := func(n int) time.Duration { return time.Duration(n) * sampleEvery }
	half := shedRateThreshold / 2
	clearSat := queueSaturationClear
	return []telemetry.Rule{
		{
			Name: "shed-rate", Series: seriesSheds,
			Threshold: shedRateThreshold, For: forSamples(3),
			Clear: &half, ClearFor: forSamples(3),
			Help: "Admission control is shedding submissions (rate limit, quota, queue, or drain).",
		},
		{
			Name: "queue-saturation", Series: seriesQueueSaturation,
			Threshold: queueSaturationFire, For: forSamples(3),
			Clear: &clearSat, ClearFor: forSamples(3),
			Help: "The admission queue is nearly full; submissions will shed soon.",
		},
		{
			// The pool's own liveness judgement, so the page follows the
			// coordinator's -heartbeat-timeout.
			Name: "worker-stale", Series: seriesWorkerUp + "/*",
			Op: "<", Threshold: 0.5, For: forSamples(2),
			Help: "A registered worker has stopped heartbeating.",
		},
		{
			Name: "worker-flap", Series: seriesWorkerFlaps + "/*",
			Threshold: workerFlapRate, For: forSamples(3),
			Help: "A worker keeps oscillating between alive and dead.",
		},
		{
			Name: "dist-dispatch-failures", Series: seriesRequeues,
			Threshold: dispatchFailureRate, For: forSamples(3),
			Help: "Shard dispatches are failing and requeueing onto surviving workers.",
		},
		{
			Name: "campaign-stall", Series: seriesCampaignsStall,
			Threshold: 0.5, For: forSamples(3),
			Help: "A running campaign has trials remaining but its completed count is not advancing.",
		},
	}
}

// alertsResponse is the GET /v1/alerts document.
type alertsResponse struct {
	Alerts []telemetry.Alert `json:"alerts"`
	// Firing counts the alerts currently in the firing state — the
	// one-glance health number (0 is good).
	Firing int              `json:"firing"`
	Rules  []telemetry.Rule `json:"rules"`
}

// handleAlerts is GET /v1/alerts: every rule instance's current state
// plus the rule definitions, so an operator sees both what is watched
// and what is wrong.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	alerts := s.alerts.Alerts()
	if alerts == nil {
		alerts = []telemetry.Alert{}
	}
	firing := 0
	for _, a := range alerts {
		if a.State == telemetry.AlertFiring {
			firing++
		}
	}
	rules := s.alerts.Rules()
	if rules == nil {
		rules = []telemetry.Rule{}
	}
	writeJSON(w, http.StatusOK, alertsResponse{Alerts: alerts, Firing: firing, Rules: rules})
}
