package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"resmod/internal/exper"
	"resmod/internal/telemetry"
)

// Job statuses, as reported by the API.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// PredictionRequest is the POST /v1/predictions body: one §4 prediction —
// model the large-scale deployment from a serial campaign plus a
// small-scale campaign.  Trials and seed are server configuration, not
// request fields: they are part of the statistical protocol the service
// guarantees, and keeping them server-side is what makes results
// shareable across clients.
type PredictionRequest struct {
	// App is the registered benchmark name ("CG", "FT", ...).
	App string `json:"app"`
	// Class is the problem class (empty = the app's default).
	Class string `json:"class,omitempty"`
	// Small is the small-scale rank count the model profiles at.
	Small int `json:"small"`
	// Large is the target scale being predicted.
	Large int `json:"large"`
	// Priority is the scheduling class: "low", "normal" (default) or
	// "high".  It orders the admission queue only — it is not part of
	// the content address, so the same prediction submitted at any
	// priority is still one job.
	Priority string `json:"priority,omitempty"`
}

// PredictionKeyVersion versions the prediction-store key schema.  A row
// is made of campaigns, so it moves with faultsim.IdentityVersion: v2 is
// v1's format over cid:v3 campaigns.
const PredictionKeyVersion = 2

// key returns the request's content-address input: every model input that
// determines the result (the campaign identities underneath are functions
// of exactly these plus the server's trials/seed).  Class must already be
// resolved to its default.
func (r PredictionRequest) key(trials int, seed uint64) string {
	return fmt.Sprintf("pred:v%d/%s/%s/s%d/p%d/t%d/seed%d",
		PredictionKeyVersion, r.App, r.Class, r.Small, r.Large, trials, seed)
}

// jobID derives the externally visible job identifier from a prediction
// key: a 16-hex-digit prefix of its SHA-256.  Content addressing is what
// makes identical submissions — concurrent or days apart — share one job.
func jobID(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:8])
}

// Prediction is the API view of a prediction job.
type Prediction struct {
	ID      string            `json:"id"`
	Status  string            `json:"status"`
	Cached  bool              `json:"cached"`
	Request PredictionRequest `json:"request"`
	// Priority is the job's effective scheduling class.  Omitted for
	// default-priority submissions, so pre-hardening clients see
	// byte-identical responses; promotions by a later high-priority
	// duplicate are visible here.
	Priority string `json:"priority,omitempty"`
	// Result is present once Status is "done".
	Result *exper.PredictionRow `json:"result,omitempty"`
	// Error is present when Status is "failed" or "canceled".
	Error string `json:"error,omitempty"`
	// SubmittedAt is the submission time; ElapsedMS the compute wall time
	// once the job finished (0 for store-served answers).
	SubmittedAt time.Time `json:"submitted_at"`
	ElapsedMS   int64     `json:"elapsed_ms,omitempty"`
	// RequestID is the X-Request-ID of the submission that created the
	// job, for correlating job records with access-log lines.
	RequestID string `json:"request_id,omitempty"`
}

// job is one scheduled prediction with its own lock (the server's map
// lock must not be held while a job runs).
type job struct {
	id    string
	key   string
	req   PredictionRequest
	reqID string
	// tenant is the submitting tenant (quota slots and per-tenant
	// metrics are charged to it for the job's whole lifetime).
	tenant string
	// progress is the job-scoped live-progress bus (nil for store-served
	// jobs, which never compute).  It exists from submission — SSE clients
	// can subscribe while the job is still queued — and forwards every
	// event to the server-wide bus.  Under the session singleflight a
	// shared campaign's events land on the bus of the job that actually
	// ran it, like trace spans.
	progress *telemetry.Progress
	// done is closed exactly once when the job reaches a terminal status,
	// so event streams learn of completion without polling.
	done       chan struct{}
	finishOnce sync.Once

	mu        sync.Mutex
	status    string
	cached    bool
	prio      int // effective queue level (promotions raise it)
	row       *exper.PredictionRow
	err       string
	submitted time.Time
	started   time.Time // when a worker picked the job up
	elapsed   time.Duration
	tracer    *telemetry.Tracer // per-job spans, set when the job starts
	// doc is the job's API document, rendered once when the job turns
	// terminal and sent as is from then on (shared by every response,
	// so nothing may write to it).  A terminal view cannot
	// change: promotion moves only queued jobs, and a failed or canceled
	// job is replaced in s.jobs, never mutated, so nothing ever has to
	// invalidate these bytes.
	doc []byte
}

// storedJob builds a job born done from a stored prediction: it never
// computes, so it has no bus, and its done channel is already closed.
func storedJob(id, key string, req PredictionRequest, reqID, tenant string, prio int, row *exper.PredictionRow) *job {
	j := &job{id: id, key: key, req: req, reqID: reqID, tenant: tenant, prio: prio,
		status: StatusDone, cached: true, row: row, submitted: time.Now(),
		done: make(chan struct{})}
	close(j.done)
	j.doc = marshalBody(j.viewLocked())
	return j
}

// view snapshots the job for JSON rendering.
func (j *job) view() Prediction {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// body is the job's API document: the stored bytes once the job is
// terminal, a fresh rendering while it is queued or running.
func (j *job) body() []byte {
	j.mu.Lock()
	doc, v := j.doc, j.viewLocked()
	j.mu.Unlock()
	if doc == nil {
		doc = marshalBody(v)
	}
	return doc
}

func (j *job) viewLocked() Prediction {
	prio := ""
	if j.prio != PrioNormal || j.req.Priority != "" {
		prio = priorityName(j.prio)
	}
	return Prediction{
		ID: j.id, Status: j.status, Cached: j.cached, Request: j.req,
		Priority: prio,
		Result:   j.row, Error: j.err, SubmittedAt: j.submitted,
		ElapsedMS: j.elapsed.Milliseconds(), RequestID: j.reqID,
	}
}

// setPriority records a promotion.  The queue calls it under its lock,
// before a worker can pop the job, so a promoted job's terminal document
// carries the raised priority.
func (j *job) setPriority(prio int) {
	j.mu.Lock()
	if prio > j.prio {
		j.prio = prio
	}
	j.mu.Unlock()
}

// startedAt returns when a worker picked the job up (zero while queued).
func (j *job) startedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// traceTracer returns the job's span recorder (nil until it starts).
func (j *job) traceTracer() *telemetry.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// retryable reports whether a resubmission should replace this job
// (failed or canceled terminal states) instead of joining it.
func (j *job) retryable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusFailed || j.status == StatusCanceled
}

func (j *job) complete(row *exper.PredictionRow, elapsed time.Duration) {
	j.mu.Lock()
	j.status = StatusDone
	j.row = row
	j.elapsed = elapsed
	j.doc = marshalBody(j.viewLocked())
	j.mu.Unlock()
	j.finish()
}

func (j *job) fail(status string, err error, elapsed time.Duration) {
	j.mu.Lock()
	j.status = status
	j.err = err.Error()
	j.elapsed = elapsed
	j.doc = marshalBody(j.viewLocked())
	j.mu.Unlock()
	j.finish()
}

// finish marks the terminal transition for event streams (idempotent —
// a drain-canceled job may be failed twice).
func (j *job) finish() {
	j.finishOnce.Do(func() {
		if j.done != nil {
			close(j.done)
		}
	})
}

// worker is one scheduler goroutine: it pops the priority queue until
// the server starts closing, finishing the job it already holds
// (graceful drain; pop returns ok=false the moment the queue closes,
// even with jobs still queued — Close cancels those).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob computes one prediction through the shared session (whose
// singleflight and durable cache dedupe the campaigns underneath) and
// persists the result.  Each job records its spans into its own tracer
// (served by GET /v1/predictions/{id}/trace); under the session
// singleflight a shared campaign's spans land in the tracer of the job
// that actually ran it.
func (s *Server) runJob(j *job) {
	tr := telemetry.NewTracer()
	now := time.Now()
	j.mu.Lock()
	j.status = StatusRunning
	j.started = now
	j.tracer = tr
	wait := now.Sub(j.submitted)
	j.mu.Unlock()
	tm := s.metrics.tenant(j.tenant)
	tm.queued.Add(-1)
	tm.queueWait.Observe(wait.Seconds())
	defer s.tenants.release(j.tenant)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	ctx := telemetry.With(s.baseCtx, s.tel.WithTracer(tr).WithProgress(j.progress))
	ctx = telemetry.WithRequestID(ctx, j.reqID)
	ctx, span := tr.Start(ctx, "job",
		telemetry.String("id", j.id), telemetry.String("app", j.req.App),
		telemetry.String("request_id", j.reqID))
	start := time.Now()
	row, err := exper.PredictOneCtx(ctx, s.session, j.req.App, j.req.Class, j.req.Small, j.req.Large)
	elapsed := time.Since(start)
	span.End()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Merge(tr)
	}
	switch {
	case err == nil:
		// Stored before it is published done: a client that sees done and
		// restarts the server over the same store finds the row there.
		s.putPrediction(j.key, j.req, row)
		j.complete(row, elapsed)
		s.metrics.jobsDone.Add(1)
		s.metrics.latency.Observe(elapsed.Seconds())
	case s.interrupted(err):
		j.fail(StatusCanceled, fmt.Errorf("canceled by server shutdown: %w", err), elapsed)
		s.metrics.jobsCanceled.Add(1)
	default:
		j.fail(StatusFailed, err, elapsed)
		s.metrics.jobsFailed.Add(1)
	}
	s.tel.Logger().Info("job finished",
		"job", j.id, "app", j.req.App, "status", j.view().Status,
		"elapsed", elapsed, "request_id", j.reqID)
}

// interrupted reports whether a job error came from the forced-drain
// cancellation rather than the prediction itself.  Session campaign
// interruptions are reported as plain errors carrying partial progress,
// so once the base context is canceled every job error is an
// interruption, not a prediction failure.
func (s *Server) interrupted(err error) bool {
	return s.baseCtx.Err() != nil
}
