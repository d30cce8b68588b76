package server

import (
	"net/http"
	"sync"

	"resmod/internal/telemetry"
)

// retained names the families the sampler keeps history for (family →
// series name): what an alert rule or a dashboard reads.  Value and
// counter-vs-gauge kind come from the family's declaration; a labelled
// family fans out to "<series>/<label value>", so wildcard alert rules
// ("worker_heartbeat_age_seconds/*") track each node independently.
var retained = map[string]string{
	"resmod_queue_depth":                        seriesQueueDepth,
	"resmod_jobs_inflight":                      "jobs_inflight",
	"resmod_campaigns_running":                  "campaigns_running",
	"resmod_campaigns_queued":                   "campaigns_queued",
	"resmod_worker_budget_in_use":               "worker_budget_in_use",
	"resmod_campaign_trials_total":              "trials_total",
	"resmod_predictions_rejected_total":         seriesSheds,
	"resmod_fleet_workers_alive":                "fleet_workers_alive",
	"resmod_fleet_workers_known":                "fleet_workers_known",
	"resmod_fleet_worker_heartbeat_age_seconds": seriesWorkerHBAge,
	"resmod_dist_shards_requeued_total":         seriesRequeues,
	"resmod_dist_heartbeats_total":              "dist_heartbeats_total",
}

// Series the alert rules and the derived signals below name.
const (
	seriesQueueDepth      = "queue_depth"
	seriesSheds           = "sheds_total"
	seriesRequeues        = "dist_shards_requeued_total"
	seriesWorkerHBAge     = "worker_heartbeat_age_seconds" // + "/" + worker name
	seriesQueueSaturation = "queue_saturation"
	seriesCampaignsStall  = "campaigns_stalled"
	series5xx             = "http_5xx_nondrain_total"
	seriesWorkerFlaps     = "worker_flaps_total" // + "/" + worker name
)

// sampleSource is the server's telemetry.SampleSource: the retained
// registry families plus the signals that have no /metrics twin because
// they need memory between ticks or are a function of other samples:
//
//   - campaigns_stalled: how many campaigns on the progress bus are
//     running with trials remaining but whose Done count did not advance
//     since the previous sample — the alert engine's For-duration turns
//     consecutive stalled samples into a campaign-stall alert.
//   - worker_flaps_total/<name>: a per-worker counter incremented on
//     every alive↔dead transition the coordinator observes, so a node
//     whose heartbeat keeps lapsing surfaces as a flap rate instead of a
//     series of isolated staleness blips.
//   - queue_saturation, trial_latency_p50/p99_seconds and
//     http_5xx_nondrain_total (5xx responses minus drain sheds, which are
//     503 by design).
type sampleSource struct {
	s    *Server
	base telemetry.SampleSource

	mu        sync.Mutex
	prevDone  map[string]uint64 // campaign key → Done at previous tick
	prevAlive map[string]bool   // worker name → alive at previous tick
	flaps     map[string]uint64 // worker name → transition count
}

func (s *Server) newSampleSource() telemetry.SampleSource {
	src := &sampleSource{s: s, base: s.metrics.reg.Source(retained)}
	return src.sample
}

func (ss *sampleSource) sample() telemetry.Samples {
	s, m := ss.s, ss.s.metrics
	smp := ss.base()
	smp.Gauges[seriesQueueSaturation] = smp.Gauges[seriesQueueDepth] / float64(s.cfg.Queue)
	trialLat := s.recorder.Snapshot().TrialLatency
	smp.Gauges["trial_latency_p50_seconds"] = trialLat.Quantile(0.5)
	smp.Gauges["trial_latency_p99_seconds"] = trialLat.Quantile(0.99)

	var fiveXX, drained uint64
	m.mu.Lock()
	for k, v := range m.httpRequests {
		if k.code >= 500 {
			fiveXX += v
		}
	}
	m.mu.Unlock()
	m.tmu.Lock()
	for _, tm := range m.tenantsByN {
		drained += tm.shedDrain.Load()
	}
	m.tmu.Unlock()
	smp.Counters[series5xx] = float64(fiveXX - min(drained, fiveXX))

	ss.mu.Lock()
	defer ss.mu.Unlock()

	// Campaign stall: a running campaign whose Done froze between ticks.
	// The memory maps are rebuilt from what is present now, so finished
	// campaigns and retired workers leave them (and, reported no longer,
	// a retired worker's flap series is dropped by the sampler).
	stalled := 0
	done := make(map[string]uint64)
	for _, ev := range s.progress.Latest() {
		if ev.Kind != telemetry.KindCampaign {
			continue
		}
		if prev, ok := ss.prevDone[ev.Key]; ok && prev == ev.Done &&
			ev.State == telemetry.StateRunning && ev.Done < ev.Total {
			stalled++
		}
		done[ev.Key] = ev.Done
	}
	ss.prevDone = done
	smp.Gauges[seriesCampaignsStall] = float64(stalled)

	if s.cfg.DistPool != nil {
		alive, flaps := make(map[string]bool), make(map[string]uint64)
		for _, wi := range s.cfg.DistPool.Workers() {
			n := ss.flaps[wi.Name]
			if prev, ok := ss.prevAlive[wi.Name]; ok && prev != wi.Alive {
				n++
			}
			alive[wi.Name], flaps[wi.Name] = wi.Alive, n
			smp.Counters[seriesWorkerFlaps+"/"+wi.Name] = float64(n)
		}
		ss.prevAlive, ss.flaps = alive, flaps
	}
	return smp
}

// handleSeries is GET /v1/series: the retained time-series query
// surface (no name lists series and windows; with ?name=&since=&max=
// it returns downsampled points).
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeSeries(s.series, w, r)
}

// handleServerEvents is GET /v1/events: the server-wide progress bus as
// one Server-Sent Events stream — every campaign/prediction snapshot
// and every alert transition, replayed-then-live.  Unlike the per-job
// stream it has no terminal event; it runs until the client hangs up.
func (s *Server) handleServerEvents(w http.ResponseWriter, r *http.Request) {
	s.streamSSE(w, r, s.progress, s.quit, nil)
}
