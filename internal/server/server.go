// Package server implements the resmod prediction service: a long-running
// HTTP JSON API over the paper's §4 model.  Submissions are scheduled on a
// bounded worker pool; identical requests are content-addressed so
// concurrent duplicates join one job (and, one layer down, the shared
// exper.Session singleflights identical campaigns), while a durable
// internal/store result store answers repeats — across process restarts —
// without re-running any campaign.
//
// Endpoints:
//
//	POST /v1/predictions              submit {"app","class","small","large"}
//	GET  /v1/predictions/{id}         poll a job
//	GET  /v1/predictions/{id}/trace   the job's Chrome trace-event JSON
//	GET  /v1/predictions/{id}/events  live progress (Server-Sent Events)
//	GET  /v1/predictions              list known jobs
//	GET  /v1/status                   aggregate scheduler/progress snapshot
//	GET  /v1/apps                     registered benchmarks
//	GET  /v1/workers                  worker roster (coordinator: false off it)
//	GET  /v1/cluster                  fleet view (workers, stats, liveness)
//	GET  /healthz                     liveness + queue snapshot
//	GET  /metrics                     Prometheus text exposition
//
// Coordinators (serve -coordinator) additionally mount the worker control
// plane: POST /v1/workers/register and /v1/workers/heartbeat.  Nothing a
// worker says about a running shard arrives here — results and live
// progress both ride the reply to the coordinator's own POST /v1/shards
// dispatch (see internal/dist).
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"resmod/internal/apps"
	"resmod/internal/dist"
	"resmod/internal/exper"
	"resmod/internal/faultsim"
	"resmod/internal/store"
	"resmod/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// Trials and Seed fix the statistical protocol every served
	// prediction uses (they are part of the result-store key).
	Trials int
	Seed   uint64
	// Workers is the scheduler pool size: how many predictions compute
	// concurrently (default 1).
	Workers int
	// Queue bounds the number of accepted-but-unstarted jobs; beyond it
	// submissions are shed with 429 (default 64).
	Queue int
	// CampaignWorkers sizes the session's trial runner set (default
	// GOMAXPROCS).  Every job runs on the one session, so it bounds the
	// trials and golden runs executing at once server-wide, however many
	// campaign slots are busy.
	CampaignWorkers int
	// CampaignParallel is how many campaigns the server executes
	// concurrently, across all jobs: every job runs on the one session,
	// so its slots are shared.  Non-positive selects GOMAXPROCS; 1
	// restores sequential campaign execution server-wide.
	CampaignParallel int
	// Timeout is the per-trial hang budget (default apps.DefaultTimeout).
	Timeout time.Duration
	// HeartbeatEvery is the SSE keep-alive comment period on
	// /v1/predictions/{id}/events (default 15s); tests shrink it.
	HeartbeatEvery time.Duration
	// SampleEvery is the telemetry retention sampler period (default
	// 10s); tests shrink it.  Sampling is observation-only — it reads
	// atomic counters and published snapshots, never engine state.
	SampleEvery time.Duration
	// AlertRules replaces the built-in alert rule set when non-empty
	// (BuiltinRules documents the defaults).
	AlertRules []telemetry.Rule
	// Store, when non-nil, persists campaign summaries and prediction
	// rows so identical work is computed once ever.
	Store *store.Store
	// DistPool, when non-nil, makes this server a coordinator: campaigns
	// are sharded across the pool's registered workers (falling back to
	// local execution while none are alive), and the worker control
	// plane (/v1/workers/register, /v1/workers/heartbeat) is mounted.
	// GET /v1/workers is served either way, answering coordinator:false
	// on plain servers.
	DistPool *dist.Pool
	// APIKeys maps API keys (sent as X-API-Key or Authorization: Bearer)
	// to tenant names.  Requests with no key run as the anonymous tier;
	// requests with an unknown key are refused with 401.
	APIKeys map[string]string
	// TenantLimits applies to every key-resolved tenant; AnonLimits to
	// the anonymous tier.  Zero-valued limits admit everything, so
	// servers that never configure tenancy behave exactly as before.
	TenantLimits TenantLimits
	AnonLimits   TenantLimits
	// Logger, when non-nil, receives every server event (access log, job
	// lifecycle, engine progress).
	Logger *slog.Logger
	// Tracer, when non-nil, accumulates every job's trace spans into one
	// process-wide trace (the serve -trace flag wires this).
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 400
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 15 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 10 * time.Second
	}
	return c
}

// Server is the prediction service.
type Server struct {
	cfg      Config
	session  *exper.Session
	metrics  *metrics
	recorder *telemetry.Recorder
	tel      *telemetry.Telemetry
	progress *telemetry.Progress // server-wide bus; every job bus forwards here
	series   *telemetry.SeriesStore
	sampler  *telemetry.Sampler
	alerts   *telemetry.AlertEngine
	mux      *http.ServeMux

	baseCtx   context.Context
	cancel    context.CancelFunc
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	queue     *jobQueue
	tenants   *tenants
	idem      *idemIndex

	mu   sync.Mutex
	jobs map[string]*job
}

// New builds the service and starts its worker pool.  Callers own the
// HTTP listener (Handler / ListenAndServe) and must Close to drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		quit:    make(chan struct{}),
		queue:   newJobQueue(cfg.Queue),
		tenants: newTenants(cfg.APIKeys, cfg.TenantLimits, cfg.AnonLimits),
		idem:    newIdemIndex(cfg.Store),
		jobs:    make(map[string]*job),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	s.recorder = telemetry.NewRecorder()
	s.tel = telemetry.New(cfg.Logger, nil, s.recorder)
	s.progress = telemetry.NewProgress()
	s.metrics = newMetrics(s)

	// Retention + alerting: the sampler reads the retained subset of the
	// registry into bounded ring windows every SampleEvery, and each tick
	// drives one alert evaluation so rules always judge fresh points.  All
	// of it is read-only over atomics and published snapshots — campaign
	// results stay byte-identical with the whole stack enabled.
	s.series = telemetry.NewSeriesStore()
	s.sampler = telemetry.NewSampler(s.series, s.newSampleSource(), cfg.SampleEvery)
	rules := cfg.AlertRules
	if len(rules) == 0 {
		rules = BuiltinRules(cfg.SampleEvery)
	}
	s.alerts = telemetry.NewAlertEngine(s.series, s.progress, rules)
	s.sampler.OnSample(func(now time.Time) { s.alerts.Evaluate(now) })

	sessCfg := exper.Config{
		Trials: cfg.Trials, Seed: cfg.Seed, Workers: cfg.CampaignWorkers,
		CampaignParallel: cfg.CampaignParallel,
		Timeout:          cfg.Timeout, Ctx: telemetry.With(s.baseCtx, s.tel),
		OnCampaign: func(identity string, sum *faultsim.Summary) {
			s.metrics.campaigns.Add(1)
		},
	}
	if cfg.Store != nil {
		sessCfg.Cache = store.CampaignCache{Store: cfg.Store}
	}
	if cfg.DistPool != nil {
		sessCfg.Distribute = cfg.DistPool.Distribute
	}
	s.session = exper.NewSession(sessCfg)

	mux := http.NewServeMux()
	mux.Handle("POST /v1/predictions", s.instrument("/v1/predictions", s.handleSubmit))
	mux.Handle("GET /v1/predictions/{id}", s.instrument("/v1/predictions/{id}", s.handleGet))
	mux.Handle("GET /v1/predictions/{id}/trace", s.instrument("/v1/predictions/{id}/trace", s.handleTrace))
	mux.Handle("GET /v1/predictions/{id}/events", s.instrument("/v1/predictions/{id}/events", s.handleEvents))
	mux.Handle("GET /v1/predictions", s.instrument("/v1/predictions", s.handleList))
	mux.Handle("GET /v1/status", s.instrument("/v1/status", s.handleStatus))
	mux.Handle("GET /v1/series", s.instrument("/v1/series", s.handleSeries))
	mux.Handle("GET /v1/alerts", s.instrument("/v1/alerts", s.handleAlerts))
	mux.Handle("GET /v1/events", s.instrument("/v1/events", s.handleServerEvents))
	mux.Handle("GET /v1/apps", s.instrument("/v1/apps", s.handleApps))
	mux.Handle("GET /v1/workers", s.instrument("/v1/workers", s.handleWorkers))
	mux.Handle("GET /v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	if cfg.DistPool != nil {
		mux.Handle("POST /v1/workers/register",
			s.instrument("/v1/workers/register", cfg.DistPool.HandleRegister))
		mux.Handle("POST /v1/workers/heartbeat",
			s.instrument("/v1/workers/heartbeat", cfg.DistPool.HandleHeartbeat))
	}
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.metrics.reg.ServeHTTP))
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.sampler.Run(s.quit)
	}()
	return s
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and serves until ctx is canceled, then shuts
// the listener down and drains: in-flight predictions finish (bounded by
// drain), queued ones are canceled.  This is the serve subcommand's whole
// lifecycle — ctx is the CLI's SIGINT/SIGTERM context.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.tel.Logger().Info(fmt.Sprintf("serving on http://%s", ln.Addr()),
		"workers", s.cfg.Workers, "queue", s.cfg.Queue,
		"trials", s.cfg.Trials, "seed", s.cfg.Seed)

	select {
	case err := <-errc:
		s.cancel()
		_ = s.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	s.tel.Logger().Info("draining", "timeout", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	_ = hs.Shutdown(drainCtx)
	if err := s.Close(drainCtx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.tel.Logger().Info("drained cleanly")
	return nil
}

// Close drains the scheduler: workers finish the job they hold, queued
// jobs are canceled.  If ctx expires first the in-flight campaigns are
// interrupted through the session context (finishing promptly with
// partial summaries that are never cached) and an error is returned.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.queue.close() // wake idle workers; they exit without new work
	})
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // force: interrupt in-flight campaigns
		<-done
		err = fmt.Errorf("forced drain after %w", ctx.Err())
	}
	// Whatever is still queued never started; mark it canceled so polling
	// clients get a terminal status, and hand its quota slot back.
	for _, j := range s.queue.drain() {
		j.fail(StatusCanceled, errors.New("canceled: server shut down before the job started"), 0)
		s.metrics.jobsCanceled.Add(1)
		s.metrics.tenant(j.tenant).queued.Add(-1)
		s.tenants.release(j.tenant)
	}
	s.cancel()
	return err
}

// ---- handlers -------------------------------------------------------------

// requestIDHeader carries the per-request correlation ID.  Clients may
// supply one; the server generates one otherwise, and always echoes it
// on the response.
const requestIDHeader = "X-Request-ID"

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response code and body size for the
// request counter and the access log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers (the SSE
// events endpoint) work through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request-ID plumbing, per-route request
// counting, and one access-log event per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = newRequestID()
			// Stash the generated ID on the inbound headers too, so
			// handlers (e.g. handleSubmit's job records) see one value
			// regardless of who minted it.
			r.Header.Set(requestIDHeader, reqID)
		}
		w.Header().Set(requestIDHeader, reqID)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		s.metrics.request(r.Method, route, rec.code)
		s.tel.Logger().Info("http request",
			"method", r.Method, "route", route, "status", rec.code,
			"bytes", rec.bytes, "dur", time.Since(start), "request_id", reqID)
	})
}

// writeJSON renders v with marshalBody, the API's one renderer, and
// sends it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeJSONRaw(w, code, marshalBody(v))
}

// marshalBody renders v indented, with a trailing newline, for paths that
// must both send and keep the bytes.
func marshalBody(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// writeJSONRaw sends pre-marshaled JSON bytes.
func writeJSONRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// validate resolves and checks a submission, returning the normalized
// request (class defaulted) or a client-facing error.
func (s *Server) validate(req PredictionRequest) (PredictionRequest, error) {
	a, err := apps.Lookup(req.App)
	if err != nil {
		return req, fmt.Errorf("unknown app %q (GET /v1/apps lists the registered benchmarks)", req.App)
	}
	req.App = a.Name()
	if req.Class == "" {
		req.Class = a.DefaultClass()
	}
	classOK := false
	for _, c := range a.Classes() {
		if c == req.Class {
			classOK = true
			break
		}
	}
	if !classOK {
		return req, fmt.Errorf("app %s has no class %q (classes: %v)", req.App, req.Class, a.Classes())
	}
	if req.Small < 1 || req.Large < 2 || req.Small >= req.Large {
		return req, fmt.Errorf("want 1 <= small < large, got small=%d large=%d", req.Small, req.Large)
	}
	if req.Large%req.Small != 0 {
		return req, fmt.Errorf("small must divide large (the paper's sampling map), got %d and %d",
			req.Small, req.Large)
	}
	if err := apps.CheckProcs(a, req.Class, req.Large); err != nil {
		return req, err
	}
	if err := apps.CheckProcs(a, req.Class, req.Small); err != nil {
		return req, err
	}
	return req, nil
}

// handleSubmit is POST /v1/predictions: tenant resolution, token-bucket
// rate limiting, validation, idempotency replay, content-addressed
// dedup, inflight quota, then priority-queue admission — in that order,
// so overload is shed as early and as cheaply as possible.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, authOK := s.tenants.resolve(r)
	if !authOK {
		s.metrics.authFailures.Add(1)
		writeError(w, http.StatusUnauthorized, "unknown API key")
		return
	}
	tm := s.metrics.tenant(tenant)

	// Rate limit first: a tenant over its sustained rate is shed before
	// the server spends anything decoding or validating its payload.
	if ok, wait := s.tenants.allow(tenant); !ok {
		tm.ratelimited.Add(1)
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.tenants.jitterSecs(wait)))
		writeError(w, http.StatusTooManyRequests,
			"tenant %q over its request rate; retry after the indicated delay", tenant)
		return
	}

	var req PredictionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	req, err := s.validate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid prediction request: %v", err)
		return
	}
	prio, err := parsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid prediction request: %v", err)
		return
	}

	// Idempotency replay: a retried request (same tenant, same key)
	// answers with the original response verbatim — same status, body and
	// job id — no matter what the queue looks like now.
	idemKey := r.Header.Get(IdempotencyKeyHeader)
	reqHash := ""
	if idemKey != "" {
		reqHash = requestHash(req)
		if rec, found := s.idem.lookup(tenant, idemKey); found {
			if rec.RequestHash != reqHash {
				s.metrics.idemConflicts.Add(1)
				writeError(w, http.StatusConflict,
					"Idempotency-Key %q was already used with a different request", idemKey)
				return
			}
			s.materializeReplayed(rec)
			s.metrics.idemReplays.Add(1)
			w.Header().Set(IdempotencyReplayHeader, "true")
			writeJSONRaw(w, rec.Status, rec.Body)
			return
		}
	}

	key := req.key(s.cfg.Trials, s.cfg.Seed)
	id := jobID(key)
	reqID := r.Header.Get(requestIDHeader)

	// s.mu guards only the s.jobs lookups and the admission decision: a
	// joined job's document is sent after the lock is released, and the
	// store is read before it is taken again (s.jobs is checked again on
	// insert, so concurrent identical submissions still share one job).
	s.mu.Lock()
	j, live := s.jobs[id]
	s.mu.Unlock()
	var admitted *Prediction // a new queued job's view at admission
	if live && !j.retryable() {
		s.join(j, prio)
	} else {
		var nj *job
		if row, ok := s.getPrediction(key); ok {
			nj = storedJob(id, key, req, reqID, tenant, prio, row)
		} else {
			nj = &job{id: id, key: key, req: req, reqID: reqID, tenant: tenant, prio: prio,
				status: StatusQueued, submitted: time.Now(), done: make(chan struct{})}
		}
		var refused *refusal
		if j, admitted, refused = s.admit(nj); refused != nil {
			w.Header().Set("Retry-After", strconv.Itoa(refused.retryAfter))
			writeError(w, refused.code, "%s", refused.msg)
			return
		}
	}
	code, body := http.StatusOK, []byte(nil)
	if admitted != nil {
		code, body = http.StatusAccepted, marshalBody(*admitted)
	} else {
		body = j.body()
	}
	// Successful admissions only are recorded: shed answers must stay
	// retryable under the same key.
	if idemKey != "" {
		s.idem.record(idemRecord{Tenant: tenant, Key: idemKey, RequestHash: reqHash,
			Request: req, Status: code, Body: body, JobID: id})
	}
	writeJSONRaw(w, code, body)
}

// join counts a submission that joins an existing job; a higher-priority
// duplicate promotes the queued original (running work is never touched).
func (s *Server) join(j *job, prio int) {
	s.queue.promote(j, prio)
	s.metrics.joined.Add(1)
}

// refusal is a shed submission's answer.
type refusal struct {
	code, retryAfter int
	msg              string
}

// admit makes the submit decision, under s.mu, for a job the first
// lookup did not find live: join one that appeared since, adopt nj when
// it was born done from the store, or queue it.  It returns the job to
// answer with (and, when it queued nj, nj's view at admission), or why
// the submission was shed.
func (s *Server) admit(nj *job) (*job, *Prediction, *refusal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[nj.id]; ok && !j.retryable() {
		s.join(j, nj.prio)
		return j, nil, nil
	}
	if nj.status == StatusDone {
		s.jobs[nj.id] = nj
		s.metrics.cacheHits.Add(1)
		return nj, nil, nil
	}
	s.metrics.cacheMisses.Add(1)
	tm := s.metrics.tenant(nj.tenant)
	select {
	case <-s.quit:
		// Draining is terminal for this process: 503 (not 429) tells
		// well-behaved clients to try another instance, not this one.
		tm.shedDrain.Add(1)
		s.metrics.rejected.Add(1)
		return nil, nil, &refusal{http.StatusServiceUnavailable,
			s.tenants.jitterSecs(5 * time.Second), "server is draining"}
	default:
	}
	if !s.tenants.acquire(nj.tenant) {
		tm.shedQuota.Add(1)
		s.metrics.rejected.Add(1)
		return nil, nil, &refusal{http.StatusTooManyRequests,
			s.tenants.shedRetryAfter(s.queue.depth(), s.cfg.Queue),
			fmt.Sprintf("tenant %q is at its max-inflight quota; retry after the indicated delay", nj.tenant)}
	}
	// The job bus exists from submission (SSE clients can subscribe while
	// the job is still queued) and forwards every event to the server-wide
	// bus, which backs /metrics and /v1/status.
	nj.progress = telemetry.NewProgress()
	nj.progress.ForwardTo(s.progress)
	if !s.queue.push(nj, nj.prio) {
		s.tenants.release(nj.tenant)
		tm.shedQueue.Add(1)
		s.metrics.rejected.Add(1)
		return nil, nil, &refusal{http.StatusTooManyRequests,
			s.tenants.shedRetryAfter(s.queue.depth(), s.cfg.Queue),
			fmt.Sprintf("queue full (%d jobs waiting); retry after the indicated delay", s.cfg.Queue)}
	}
	s.jobs[nj.id] = nj
	s.metrics.submitted.Add(1)
	tm.admitted.Add(1)
	tm.queued.Add(1)
	v := nj.view()
	return nj, &v, nil
}

// materializeReplayed rebuilds the jobs-map entry behind a replayed
// response when the process restarted since the original admission: if
// the prediction finished and persisted, GET /v1/predictions/{id} works
// again immediately.  Nothing to do when the job is still known.  The
// store is read outside s.mu, like on the submit path.
func (s *Server) materializeReplayed(rec idemRecord) {
	s.mu.Lock()
	_, known := s.jobs[rec.JobID]
	s.mu.Unlock()
	if known {
		return
	}
	key := rec.Request.key(s.cfg.Trials, s.cfg.Seed)
	row, ok := s.getPrediction(key)
	if !ok {
		return
	}
	j := storedJob(rec.JobID, key, rec.Request, "", rec.Tenant, PrioNormal, row)
	s.mu.Lock()
	if _, known := s.jobs[rec.JobID]; !known {
		s.jobs[rec.JobID] = j
	}
	s.mu.Unlock()
}

// pathJob returns the job the request path names, answering 404 (and
// returning nil) when there is none.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no prediction %q", id)
	}
	return j
}

// handleGet is GET /v1/predictions/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.pathJob(w, r); j != nil {
		writeJSONRaw(w, http.StatusOK, j.body())
	}
}

// handleTrace is GET /v1/predictions/{id}/trace: the job's recorded
// spans as Chrome trace-event JSON (load in chrome://tracing or
// Perfetto).  A running job returns the spans finished so far.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	tr := j.traceTracer()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			"no trace for prediction %q (cache-served or not started)", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChromeTrace(w)
}

// handleList is GET /v1/predictions.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]Prediction, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool {
		if !views[i].SubmittedAt.Equal(views[k].SubmittedAt) {
			return views[i].SubmittedAt.Before(views[k].SubmittedAt)
		}
		return views[i].ID < views[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"predictions": views})
}

// appInfo is one GET /v1/apps entry.
type appInfo struct {
	Name         string         `json:"name"`
	Classes      []string       `json:"classes"`
	DefaultClass string         `json:"default_class"`
	MaxProcs     map[string]int `json:"max_procs"`
}

// handleApps is GET /v1/apps.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	var infos []appInfo
	for _, name := range apps.Names() {
		a, err := apps.Lookup(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		info := appInfo{
			Name: a.Name(), Classes: a.Classes(), DefaultClass: a.DefaultClass(),
			MaxProcs: make(map[string]int, len(a.Classes())),
		}
		for _, c := range a.Classes() {
			info.MaxProcs[c] = a.MaxProcs(c)
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"apps": infos})
}

// handleWorkers is GET /v1/workers: the distributed-execution registry
// view.  On a non-coordinator server it answers coordinator:false with
// an empty worker list, so load harnesses can probe any instance.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DistPool == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"coordinator": false,
			"alive":       0,
			"workers":     []dist.WorkerInfo{},
		})
		return
	}
	s.cfg.DistPool.HandleWorkers(w, r)
}

// handleCluster is GET /v1/cluster: the fleet view — pool counters plus
// per-worker detail (self-reported stats, trials/sec, heartbeat age).
// On a non-coordinator server it answers coordinator:false, so
// operators can point the same dashboard at any instance.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DistPool == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"coordinator":   false,
			"workers_known": 0,
			"workers_alive": 0,
			"workers":       []dist.WorkerInfo{},
		})
		return
	}
	s.cfg.DistPool.HandleCluster(w, r)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"queue_depth":    s.queue.depth(),
		"jobs":           jobs,
		"workers":        s.cfg.Workers,
	})
}

// ---- prediction store ------------------------------------------------------

// storedPrediction is the result-store document for one prediction.
type storedPrediction struct {
	Version int                 `json:"version"`
	Key     string              `json:"key"`
	Request PredictionRequest   `json:"request"`
	Row     exper.PredictionRow `json:"row"`
}

// getPrediction probes the store for a finished prediction.
func (s *Server) getPrediction(key string) (*exper.PredictionRow, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	var sp storedPrediction
	if !s.cfg.Store.GetJSON(key, &sp) {
		return nil, false
	}
	if sp.Version != PredictionKeyVersion || sp.Key != key {
		return nil, false
	}
	row := sp.Row
	return &row, true
}

// putPrediction persists a finished prediction (best effort).
func (s *Server) putPrediction(key string, req PredictionRequest, row *exper.PredictionRow) {
	if s.cfg.Store == nil || row == nil {
		return
	}
	err := s.cfg.Store.PutJSON(key, storedPrediction{
		Version: PredictionKeyVersion, Key: key, Request: req, Row: *row,
	})
	if err != nil {
		s.tel.Logger().Warn("storing prediction failed", "key", key, "err", err)
	}
}
