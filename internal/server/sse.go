package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"resmod/internal/exper"
	"resmod/internal/telemetry"
)

// handleEvents is GET /v1/predictions/{id}/events: the job's live
// progress as a Server-Sent Events stream.
//
// Each snapshot arrives as `event: progress` with a
// telemetry.ProgressEvent JSON body; the stream ends with one
// `event: done` carrying the job's final API view, after which the
// server closes the connection.  A client connecting mid-job first
// receives the latest snapshot of every campaign/prediction the job has
// touched (bus replay), so it starts from current state; a client
// connecting after completion receives the replay and the terminal event
// immediately.  Comment-line heartbeats (Config.HeartbeatEvery) keep
// idle proxies from timing the stream out.  Disconnecting never cancels
// or fails the job — the subscription is read-only and drops its oldest
// buffered events if the client stalls.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	// A store-served job has no bus; its nil subscription yields a nil
	// channel (never ready) and the already-closed done channel ends the
	// stream at once.
	s.streamSSE(w, r, j.progress, j.done, func() any { return j.view() })
}

// streamSSE serves one Server-Sent Events stream off bus: the response
// headers, the replayed-then-live snapshots as `event: progress` frames,
// and comment-line heartbeats every Config.HeartbeatEvery.  The stream
// runs until the client hangs up or stop closes; if final is non-nil a
// stopped stream first flushes the snapshots still buffered and then
// ends with one `event: done` frame carrying final().
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, bus *telemetry.Progress, stop <-chan struct{}, final func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Subscribed before stop is first looked at, so no event can fall
	// between the replay and the live stream.
	sub := bus.Subscribe(256)
	defer sub.Close()

	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	heartbeat := time.NewTicker(s.cfg.HeartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev := <-sub.Events():
			if !emit("progress", ev) {
				return
			}
		case <-stop:
			if final == nil {
				return
			}
			for {
				select {
				case ev := <-sub.Events():
					if !emit("progress", ev) {
						return
					}
					continue
				default:
				}
				break
			}
			emit("done", final())
			return
		}
	}
}

// statusView is the GET /v1/status document.
type statusView struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[string]int `json:"jobs"`
	JobsTotal     int            `json:"jobs_total"`
	// Scheduler samples the shared campaign scheduler: campaigns
	// running/queued against the slot capacity, and the trial-worker
	// budget's occupancy.
	Scheduler exper.SchedulerStats `json:"scheduler"`
	// CampaignsTracked is the number of campaigns with a live progress
	// snapshot on the server-wide bus (running or finished).
	CampaignsTracked int `json:"campaigns_tracked"`
}

// handleStatus is GET /v1/status: one aggregate JSON snapshot of the
// whole service — queue depth, per-state job counts, campaign-scheduler
// and worker-budget occupancy.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	counts := map[string]int{}
	s.mu.Lock()
	total := len(s.jobs)
	for _, j := range s.jobs {
		counts[j.view().Status]++
	}
	s.mu.Unlock()
	tracked := 0
	for _, ev := range s.progress.Latest() {
		if ev.Kind == telemetry.KindCampaign {
			tracked++
		}
	}
	writeJSON(w, http.StatusOK, statusView{
		Status:           "ok",
		UptimeSeconds:    time.Since(s.metrics.start).Seconds(),
		Workers:          s.cfg.Workers,
		QueueDepth:       s.queue.depth(),
		QueueCapacity:    s.cfg.Queue,
		Jobs:             counts,
		JobsTotal:        total,
		Scheduler:        s.session.SchedulerStats(),
		CampaignsTracked: tracked,
	})
}
