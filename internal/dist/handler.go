package dist

import (
	"encoding/json"
	"io"
	"net/http"
)

// HandleRegister is the POST /v1/workers/register endpoint: a worker
// announces its callback URL and receives its id.
func (p *Pool) HandleRegister(rw http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: "bad register request: " + err.Error()})
		return
	}
	if req.URL == "" {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: "register needs a worker url"})
		return
	}
	if req.Name == "" {
		req.Name = req.URL
	}
	writeJSON(rw, http.StatusOK, registerResponse{ID: p.Register(req.Name, req.URL)})
}

// HandleHeartbeat is the POST /v1/workers/heartbeat endpoint.  An
// unknown id (e.g. after a coordinator restart) answers 404 — the
// worker's cue to re-register.
func (p *Pool) HandleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: "bad heartbeat request: " + err.Error()})
		return
	}
	if !p.Heartbeat(req.ID) {
		writeJSON(rw, http.StatusNotFound, errorResponse{Error: "unknown worker id " + req.ID})
		return
	}
	writeJSON(rw, http.StatusOK, map[string]bool{"ok": true})
}

// HandleCluster is the GET /v1/cluster endpoint: the coordinator's
// fleet view — pool counters plus, per worker, liveness, heartbeat age
// and the coordinator's own shard counts.
func (p *Pool) HandleCluster(rw http.ResponseWriter, _ *http.Request) {
	st := p.Stats()
	writeJSON(rw, http.StatusOK, map[string]any{
		"coordinator":       true,
		"workers_known":     st.WorkersKnown,
		"workers_alive":     st.WorkersAlive,
		"heartbeats":        st.Heartbeats,
		"campaigns":         st.Campaigns,
		"shards_dispatched": st.ShardsDispatched,
		"shards_completed":  st.ShardsCompleted,
		"shards_requeued":   st.ShardsRequeued,
		"shards_local":      st.ShardsLocal,
		"progress_reports":  st.ProgressReports,
		"workers":           p.Workers(),
	})
}

// Handler mounts the coordinator's worker-facing endpoints on a bare
// mux — the form tests and the bench harness embed; the prediction
// service mounts the same methods behind its instrumented mux.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", p.HandleRegister)
	mux.HandleFunc("POST /v1/workers/heartbeat", p.HandleHeartbeat)
	mux.HandleFunc("GET /v1/cluster", p.HandleCluster)
	return mux
}
