package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Worker execution-node defaults.
const (
	// DefaultHeartbeatEvery is the worker→coordinator heartbeat period.
	DefaultHeartbeatEvery = 1 * time.Second
	// registerBackoffMax caps the re-registration retry backoff.
	registerBackoffMax = 5 * time.Second
)

// WorkerConfig configures one execution node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// Listen is the worker's own listen address (host:port, port 0 ok).
	Listen string
	// Advertise is the URL the coordinator should dial back; empty
	// derives http://<bound address> from the listener.
	Advertise string
	// Name labels the worker in the coordinator's /v1/cluster roster and
	// its per-worker /metrics series (default: the bound address).
	Name string
	// Workers is the per-shard trial concurrency on this node (default
	// GOMAXPROCS).  Trial concurrency never affects outcomes, so each
	// node is free to size it to its own hardware.
	Workers int
	// HeartbeatEvery is the heartbeat period (default
	// DefaultHeartbeatEvery).
	HeartbeatEvery time.Duration
}

// Worker is an execution node: it registers with a coordinator,
// heartbeats, and executes trial-range shards POSTed to /v1/shards
// through the local faultsim engine, caching golden runs per
// (app, class, procs).
type Worker struct {
	cfg    WorkerConfig
	tel    *telemetry.Telemetry
	client *http.Client
	// life is Run's context: it bounds the work that outlives the
	// request that started it (a golden flight).
	life context.Context

	// reg declares this node's /metrics families, the one copy of its
	// internal counters.
	reg *telemetry.Registry

	id atomic.Value // string: coordinator-assigned worker id

	mu      sync.Mutex
	goldens map[goldenKey]*goldenFlight

	shardsDone     *telemetry.Counter
	shardsFailed   *telemetry.Counter
	shardsInflight *telemetry.Gauge
	trialsDone     *telemetry.Counter
	goldenHits     *telemetry.Counter
	goldenMisses   *telemetry.Counter
}

type goldenKey struct {
	app   string
	class string
	procs int
}

type goldenFlight struct {
	done chan struct{}
	g    *faultsim.Golden
	err  error
}

// NewWorker validates the config and returns a runnable worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("dist: worker needs a coordinator URL")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	reg := telemetry.NewRegistry()
	start := time.Now()
	w := &Worker{
		cfg:     cfg,
		client:  &http.Client{Timeout: 10 * time.Second},
		life:    context.Background(),
		goldens: make(map[goldenKey]*goldenFlight),
		reg:     reg,

		shardsDone:   reg.Counter("resmod_worker_shards_done_total", "Shards executed and returned."),
		shardsFailed: reg.Counter("resmod_worker_shards_failed_total", "Shards that ended in an error."),
		trialsDone:   reg.Counter("resmod_worker_trials_done_total", "Trials completed across all shards."),
		goldenHits: reg.Counter("resmod_worker_golden_cache_hits_total",
			"Shard requests answered from the golden-run cache."),
		goldenMisses: reg.Counter("resmod_worker_golden_cache_misses_total",
			"Golden-run computations triggered by shard requests."),
		shardsInflight: reg.Gauge("resmod_worker_shards_inflight", "Shards currently executing."),
	}
	reg.GaugeFunc("resmod_worker_uptime_seconds", "Seconds since the worker process started.",
		telemetry.Value(func() float64 { return time.Since(start).Seconds() }))
	return w, nil
}

// Handler returns the worker's HTTP surface: POST /v1/shards executes a
// shard synchronously; GET /healthz reports liveness; GET /metrics
// exposes the worker's own Prometheus families.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards", w.handleShard)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.Handle("GET /metrics", w.reg)
	return mux
}

// Run serves shards until the context ends: bind, register (retrying
// until the coordinator answers), heartbeat, serve.  Returns nil on a
// clean context-driven shutdown.
func (w *Worker) Run(ctx context.Context) error {
	w.tel, w.life = telemetry.From(ctx), ctx
	w.tel.Recorder().Register(w.reg)
	ln, err := net.Listen("tcp", w.cfg.Listen)
	if err != nil {
		return fmt.Errorf("dist: worker listen: %w", err)
	}
	advertise := w.cfg.Advertise
	if advertise == "" {
		advertise = "http://" + ln.Addr().String()
	}
	name := w.cfg.Name
	if name == "" {
		name = ln.Addr().String()
	}
	log := w.tel.Logger()
	log.Info("worker up", "listen", ln.Addr().String(),
		"advertise", advertise, "coordinator", w.cfg.Coordinator)

	srv := &http.Server{
		Handler: w.Handler(),
		BaseContext: func(net.Listener) context.Context {
			// Shard executions inherit the worker's lifetime (and its
			// telemetry), not just the request's.
			return ctx
		},
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(ctx, name, advertise)
	}()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fmt.Errorf("dist: worker serve: %w", err)
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shctx)
	<-hbDone
	log.Info("worker down", "shards_done", w.shardsDone.Load())
	return nil
}

// jittered draws a sleep uniformly from [d/2, d]: a restarted
// coordinator turns its whole fleet away at once, and without the spread
// every worker's doubling backoff would bring them back in lockstep.
func jittered(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// heartbeatLoop registers and then heartbeats until ctx ends,
// re-registering (with capped, jittered backoff) whenever the coordinator
// stops recognizing the worker — e.g. after a coordinator restart.
func (w *Worker) heartbeatLoop(ctx context.Context, name, advertise string) {
	log := w.tel.Logger()
	backoff := w.cfg.HeartbeatEvery
	for ctx.Err() == nil {
		id, err := w.register(ctx, name, advertise)
		if err != nil {
			log.Warn("worker register failed", "err", err)
			if !sleepCtx(ctx, jittered(backoff)) {
				return
			}
			if backoff *= 2; backoff > registerBackoffMax {
				backoff = registerBackoffMax
			}
			continue
		}
		backoff = w.cfg.HeartbeatEvery
		w.id.Store(id)
		log.Info("worker registered", "id", id)
		ticker := time.NewTicker(w.cfg.HeartbeatEvery)
		for ctx.Err() == nil {
			select {
			case <-ctx.Done():
				ticker.Stop()
				return
			case <-ticker.C:
			}
			if err := w.heartbeat(ctx, id); err != nil {
				log.Warn("worker heartbeat rejected, re-registering", "err", err)
				break
			}
		}
		ticker.Stop()
	}
}

func (w *Worker) register(ctx context.Context, name, advertise string) (string, error) {
	var resp registerResponse
	err := w.postJSON(ctx, w.cfg.Coordinator+"/v1/workers/register",
		registerRequest{Name: name, URL: advertise}, &resp)
	if err != nil {
		return "", err
	}
	if resp.ID == "" {
		return "", errors.New("dist: coordinator returned empty worker id")
	}
	return resp.ID, nil
}

func (w *Worker) heartbeat(ctx context.Context, id string) error {
	return w.postJSON(ctx, w.cfg.Coordinator+"/v1/workers/heartbeat", heartbeatRequest{ID: id}, nil)
}

func (w *Worker) postJSON(ctx context.Context, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dist: %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// decodeShardRequest reads a dispatch and resolves its campaign.  A field
// this worker does not know is an error that names it: a spec from a
// coordinator of another version may describe a campaign this worker
// cannot run, and running a different one instead would only be caught
// when the coordinator merges the result.
func decodeShardRequest(r io.Reader) (ShardRequest, faultsim.Campaign, error) {
	var req ShardRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, faultsim.Campaign{}, fmt.Errorf("bad shard request: %w", err)
	}
	c, err := req.Campaign.Campaign()
	return req, c, err
}

// handleShard executes one dispatched trial range.  The request context
// is the cancellation lever: a coordinator that abandons the dispatch
// (worker presumed dead, campaign canceled) tears down the shard's
// trials through the same plumbing as a local SIGINT.
//
// Observability rides the request: the coordinator's X-Request-ID lands
// in this worker's slog fields and is echoed on the response, a
// per-request tracer captures the shard's spans for the reply when the
// dispatch asked for them, and a progress request makes the reply carry
// live tallies ahead of the result.  None of it can perturb the result.
func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	req, c, err := decodeShardRequest(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	c.Workers = w.cfg.Workers

	ctx := r.Context()
	log := w.tel.Logger().With("shard", fmt.Sprintf("[%d,%d)", req.Start, req.End))
	if reqID := r.Header.Get(RequestIDHeader); reqID != "" {
		rw.Header().Set(RequestIDHeader, reqID)
		log = log.With("request_id", reqID)
		ctx = telemetry.WithRequestID(ctx, reqID)
	}
	if ps := r.Header.Get(ParentSpanHeader); ps != "" {
		log = log.With("parent_span", ps)
	}
	stel := w.tel.WithLogger(log)
	var tr *telemetry.Tracer
	if req.Trace {
		tr = telemetry.NewTracer()
		stel = stel.WithTracer(tr)
	}
	ctx = telemetry.With(ctx, stel)

	// From here on the reply is a frame stream (see ShardResponse): the
	// shard's outcome, failure included, travels in its terminal frame.
	rw.Header().Set("Content-Type", "application/json")
	frames := json.NewEncoder(rw)
	stopProgress := func() {}
	if req.Progress {
		ctx, stopProgress = streamProgress(ctx, rw, frames)
	}

	w.shardsInflight.Add(1)
	defer w.shardsInflight.Add(-1)
	log.Info("shard accepted", "app", req.Campaign.App, "trials", req.End-req.Start)

	resp := ShardResponse{}
	if v := w.id.Load(); v != nil {
		resp.Worker = v.(string)
	}
	stage, t0 := "golden", time.Time{}
	golden, err := w.golden(ctx, c.App, c.Class, c.Procs, c.Timeout)
	if err == nil {
		stage, t0 = "run", time.Now()
		resp.Result, err = faultsim.RunShardCtx(ctx, c, golden, req.Start, req.End)
	}
	stopProgress()
	if err != nil {
		w.shardsFailed.Add(1)
		log.Warn("shard failed", "stage", stage, "err", err)
		resp.Error = err.Error()
	} else {
		w.shardsDone.Add(1)
		w.trialsDone.Add(resp.Result.Checkpoint.Completed)
		resp.ElapsedNS = time.Since(t0).Nanoseconds()
		if tr != nil {
			// Ship the shard's spans back, and keep a copy in the worker's own
			// tracer (when it has one) so a worker-side -trace file still shows
			// the work this node did.
			resp.Trace = tr.Spans()
			w.tel.Tracer().Merge(tr)
		}
		log.Info("shard done", "trials_done", resp.Result.Checkpoint.Completed,
			"elapsed_ms", time.Since(t0).Milliseconds())
	}
	_ = frames.Encode(resp) // a coordinator that hung up has already requeued the chunk
}

// streamProgress makes the shard run under the returned context write its
// live tallies to the reply as progress frames.  The shard's observer
// fires at the campaign's own progress cadence and only ever fills a
// one-slot, latest-wins hand-off, so the trial loop never blocks on the
// network; a writer goroutine owns rw until the returned stop function
// returns, which the handler calls before it writes the terminal frame.
func streamProgress(ctx context.Context, rw http.ResponseWriter, frames *json.Encoder) (context.Context, func()) {
	slot := make(chan faultsim.ShardStatus, 1)
	ctx = faultsim.WithShardObserver(ctx, func(st faultsim.ShardStatus) {
		select {
		case <-slot: // a stale snapshot nobody wrote yet
		default:
		}
		select {
		case slot <- st:
		default: // another trial goroutine got in first, with tallies as fresh
		}
	})
	flusher := http.NewResponseController(rw)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			case st := <-slot:
				// A failed write means the coordinator is gone, and the
				// request context is about to say so.
				if frames.Encode(ShardResponse{Progress: &st}) == nil {
					_ = flusher.Flush()
				}
			}
		}
	}()
	return ctx, func() { close(done); <-stopped }
}

// golden returns the (app, class, procs) reference run, computing it at
// most once per key even under concurrent shard requests.  The first
// request to ask starts the computation, but under the worker's lifetime
// rather than its own context: a dispatch the coordinator abandons must
// not fail every shard that joined the flight, nor empty a slot that was
// about to be filled.  Every caller, the first included, stops waiting
// when its own context ends.
func (w *Worker) golden(ctx context.Context, app apps.App, class string, procs int, timeout time.Duration) (*faultsim.Golden, error) {
	if class == "" {
		class = app.DefaultClass()
	}
	key := goldenKey{app: app.Name(), class: class, procs: procs}
	w.mu.Lock()
	f := w.goldens[key]
	if f == nil {
		w.goldenMisses.Add(1)
		f = &goldenFlight{done: make(chan struct{})}
		w.goldens[key] = f
		// The flight keeps the request's telemetry but not its
		// cancellation; it ends with the computation, which w.life cancels.
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		stop := context.AfterFunc(w.life, cancel)
		go func() {
			defer cancel()
			defer stop()
			f.g, f.err = faultsim.ComputeGoldenCtx(fctx, app, class, procs, timeout)
			if f.err != nil {
				// Clear the slot so a later shard can retry.
				w.mu.Lock()
				delete(w.goldens, key)
				w.mu.Unlock()
			}
			close(f.done)
		}()
	} else {
		w.goldenHits.Add(1)
	}
	w.mu.Unlock()
	select {
	case <-f.done:
		return f.g, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

// sleepCtx sleeps d or until ctx ends; reports whether ctx is still
// live.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
