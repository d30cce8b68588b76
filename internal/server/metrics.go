package server

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resmod/internal/telemetry"
)

// latencyBuckets are the prediction-latency histogram bounds in seconds.
// Campaign work ranges from milliseconds (tiny test configs, warm golden
// caches) to minutes (paper-scale trial counts), so the buckets span both.
var latencyBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}

// queueWaitBuckets bound the admission-to-start wait histogram: an idle
// server starts jobs in microseconds, a saturated one in minutes.
var queueWaitBuckets = []float64{0.0005, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}

// alertStateValue encodes the alert state machine as the resmod_alerts
// sample value (inactive is 0).
var alertStateValue = map[string]float64{
	telemetry.AlertPending: 1, telemetry.AlertFiring: 2, telemetry.AlertResolved: 3,
}

// requestKey labels one HTTP request counter series.  A comparable
// struct key keeps the hot-path increment allocation-free (the old
// fmt.Sprintf key built a string under the lock on every request);
// label formatting happens once, at exposition.
type requestKey struct {
	method string
	route  string
	code   int
}

// metrics is the service's part of the registry: the counters handlers
// and scheduler bump, plus collectors over state owned elsewhere.  The
// engine and the worker pool declare their own families on the same
// registry, which is the GET /metrics handler.
type metrics struct {
	reg   *telemetry.Registry
	start time.Time

	mu           sync.Mutex
	httpRequests map[requestKey]uint64

	submitted   *telemetry.Counter // jobs accepted into the queue
	joined      *telemetry.Counter // submissions that joined an existing job
	cacheHits   *telemetry.Counter // submissions answered from the result store
	cacheMisses *telemetry.Counter // submissions that had to compute
	rejected    *telemetry.Counter // submissions refused (queue full / draining)

	jobsDone     *telemetry.Counter
	jobsFailed   *telemetry.Counter
	jobsCanceled *telemetry.Counter
	inflight     *telemetry.Gauge

	campaigns *telemetry.Counter // campaigns actually executed (not cached)

	authFailures *telemetry.Counter // submissions with an unknown API key

	latency *telemetry.Histogram

	tmu        sync.Mutex
	tenantsByN map[string]*tenantMetrics
}

// tenantMetrics is one tenant's admission-control series: how much got
// in, how much was shed and why, and how long admitted work queued.
type tenantMetrics struct {
	admitted    atomic.Uint64        // jobs accepted into the queue
	ratelimited atomic.Uint64        // requests shed by the token bucket (429)
	shedQuota   atomic.Uint64        // submissions shed at the inflight quota (429)
	shedQueue   atomic.Uint64        // submissions shed at queue saturation (429)
	shedDrain   atomic.Uint64        // submissions refused while draining (503)
	queued      atomic.Int64         // jobs currently waiting in the queue
	queueWait   *telemetry.Histogram // admission-to-start wait, seconds
}

// newMetrics declares every family the service exposes, in /metrics
// order.  s.cfg, s.queue and s.recorder must be set; everything else a
// collector reads (session, progress bus, tenants, alert engine) is
// dereferenced at scrape time.
func newMetrics(s *Server) *metrics {
	reg := telemetry.NewRegistry()
	m := &metrics{
		reg:          reg,
		start:        time.Now(),
		httpRequests: make(map[requestKey]uint64),
		latency:      telemetry.NewHistogram(latencyBuckets),
		tenantsByN:   make(map[string]*tenantMetrics),
	}
	reg.CounterFunc("resmod_http_requests_total", "Served HTTP requests.", m.collectRequests)
	m.submitted = reg.Counter("resmod_predictions_submitted_total",
		"Prediction jobs accepted into the queue.")
	m.joined = reg.Counter("resmod_predictions_joined_total",
		"Submissions deduplicated onto an already-known job.")
	m.cacheHits = reg.Counter("resmod_prediction_cache_hits_total",
		"Submissions answered from the durable result store.")
	m.cacheMisses = reg.Counter("resmod_prediction_cache_misses_total",
		"Submissions that required computation.")
	m.rejected = reg.Counter("resmod_predictions_rejected_total",
		"Submissions refused because the queue was full or the server was draining.")
	m.authFailures = reg.Counter("resmod_auth_failures_total",
		"Submissions refused for carrying an unknown API key.")
	m.jobsDone = reg.Counter("resmod_jobs_done_total", "Prediction jobs completed successfully.")
	m.jobsFailed = reg.Counter("resmod_jobs_failed_total", "Prediction jobs that ended in an error.")
	m.jobsCanceled = reg.Counter("resmod_jobs_canceled_total", "Prediction jobs canceled by shutdown.")
	m.campaigns = reg.Counter("resmod_campaigns_executed_total",
		"Fault-injection campaigns actually executed (cache hits excluded).")
	s.recorder.Register(reg)

	reg.GaugeFunc("resmod_queue_depth", "Jobs waiting in the scheduler queue.",
		telemetry.Value(s.queue.depth))
	m.inflight = reg.Gauge("resmod_jobs_inflight", "Jobs currently being computed.")
	reg.GaugeFunc("resmod_uptime_seconds", "Seconds since the server started.",
		telemetry.Value(func() float64 { return time.Since(m.start).Seconds() }))
	reg.GaugeFunc("resmod_worker_budget_in_use", "Trial-worker tokens currently held by in-flight trials.",
		telemetry.Value(func() int { return s.session.SchedulerStats().WorkerBudgetInUse }))
	reg.GaugeFunc("resmod_worker_budget_size", "Trial-worker token pool capacity shared by all campaigns.",
		telemetry.Value(func() int { return s.session.SchedulerStats().WorkerBudgetSize }))
	reg.GaugeFunc("resmod_campaigns_running", "Campaigns currently holding an execution slot.",
		telemetry.Value(func() int { return s.session.SchedulerStats().CampaignsRunning }))
	reg.GaugeFunc("resmod_campaigns_queued", "Campaigns blocked waiting for an execution slot.",
		telemetry.Value(func() int { return s.session.SchedulerStats().CampaignsQueued }))

	// Per-campaign live-progress gauges from the server-wide bus.
	campaign := func(read func(telemetry.ProgressEvent) float64) func(*telemetry.Emitter) {
		return func(e *telemetry.Emitter) {
			for _, ev := range s.progress.Latest() {
				if ev.Kind == telemetry.KindCampaign {
					e.Add(read(ev), "campaign", ev.Key)
				}
			}
		}
	}
	reg.GaugeFunc("resmod_campaign_progress_ratio", "Completed fraction of each tracked campaign.",
		campaign(telemetry.ProgressEvent.Ratio))
	reg.GaugeFunc("resmod_trials_per_second", "Trial throughput of each tracked campaign (this run).",
		campaign(func(ev telemetry.ProgressEvent) float64 { return ev.TrialsPerSec }))

	// Per-tenant admission-control families; series appear as tenants
	// first touch the service.
	tenant := func(emit func(e *telemetry.Emitter, name string, tm *tenantMetrics)) func(*telemetry.Emitter) {
		return func(e *telemetry.Emitter) {
			for _, n := range m.tenantNames() {
				emit(e, n, m.tenant(n))
			}
		}
	}
	reg.CounterFunc("resmod_tenant_admitted_total", "Jobs admitted into the queue, by tenant.",
		tenant(func(e *telemetry.Emitter, n string, tm *tenantMetrics) {
			e.Add(float64(tm.admitted.Load()), "tenant", n)
		}))
	reg.CounterFunc("resmod_tenant_ratelimited_total", "Requests shed by the tenant's token bucket (429).",
		tenant(func(e *telemetry.Emitter, n string, tm *tenantMetrics) {
			e.Add(float64(tm.ratelimited.Load()), "tenant", n)
		}))
	reg.CounterFunc("resmod_tenant_shed_total",
		"Submissions shed before admission, by tenant and reason (quota/queue are 429, drain is 503).",
		tenant(func(e *telemetry.Emitter, n string, tm *tenantMetrics) {
			e.Add(float64(tm.shedQuota.Load()), "tenant", n, "reason", "quota")
			e.Add(float64(tm.shedQueue.Load()), "tenant", n, "reason", "queue")
			e.Add(float64(tm.shedDrain.Load()), "tenant", n, "reason", "drain")
		}))
	reg.GaugeFunc("resmod_tenant_queued", "Jobs currently waiting in the queue, by tenant.",
		tenant(func(e *telemetry.Emitter, n string, tm *tenantMetrics) {
			e.Add(float64(tm.queued.Load()), "tenant", n)
		}))
	reg.GaugeFunc("resmod_tenant_inflight", "Queued-plus-running jobs charged to each tenant's quota.",
		func(e *telemetry.Emitter) {
			for _, g := range s.tenants.inflightSnapshot() {
				e.Add(g.value, "tenant", g.tenant)
			}
		})
	reg.HistogramFunc("resmod_queue_wait_seconds", "Admission-to-start wait of executed jobs, by tenant.",
		tenant(func(e *telemetry.Emitter, n string, tm *tenantMetrics) {
			e.Hist(tm.queueWait.Snapshot(), "tenant", n)
		}))

	// Coordinator and store families are absent on servers without one.
	if s.cfg.DistPool != nil {
		s.cfg.DistPool.RegisterMetrics(reg)
	}
	if st := s.cfg.Store; st != nil {
		reg.CounterFunc("resmod_store_hits_total", "Result-store lookups that found an entry.",
			telemetry.Value(func() uint64 { return st.Stats().Hits }))
		reg.CounterFunc("resmod_store_misses_total", "Result-store lookups that found nothing.",
			telemetry.Value(func() uint64 { return st.Stats().Misses }))
		reg.CounterFunc("resmod_store_puts_total", "Result-store writes.",
			telemetry.Value(func() uint64 { return st.Stats().Puts }))
		reg.CounterFunc("resmod_store_evictions_total", "Result-store LRU evictions.",
			telemetry.Value(func() uint64 { return st.Stats().Evictions }))
		reg.CounterFunc("resmod_store_corrupt_total", "Corrupt or partial store files skipped.",
			telemetry.Value(func() uint64 { return st.Stats().Corrupt }))
	}

	// One series per rule instance, so an external scraper can alert on
	// the alerts; the firing gauge is the one-number health signal.
	reg.GaugeFunc("resmod_alerts", "Alert rule states (0 inactive, 1 pending, 2 firing, 3 resolved).",
		func(e *telemetry.Emitter) {
			for _, a := range s.alerts.Alerts() {
				v := alertStateValue[a.State]
				if a.Instance != "" {
					e.Add(v, "rule", a.Rule, "instance", a.Instance, "state", a.State)
				} else {
					e.Add(v, "rule", a.Rule, "state", a.State)
				}
			}
		})
	reg.GaugeFunc("resmod_alerts_firing", "Alert rule instances currently firing.",
		telemetry.Value(func() int {
			firing := 0
			for _, a := range s.alerts.Alerts() {
				if a.State == telemetry.AlertFiring {
					firing++
				}
			}
			return firing
		}))
	reg.HistogramFunc("resmod_prediction_duration_seconds", "Wall time of computed predictions.",
		func(e *telemetry.Emitter) { e.Hist(m.latency.Snapshot()) })
	return m
}

// collectRequests reports the per-route request counters in a stable
// order.
func (m *metrics) collectRequests(e *telemetry.Emitter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]requestKey, 0, len(m.httpRequests))
	for k := range m.httpRequests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.method != b.method {
			return a.method < b.method
		}
		if a.route != b.route {
			return a.route < b.route
		}
		return a.code < b.code
	})
	for _, k := range keys {
		e.Add(float64(m.httpRequests[k]), "method", k.method, "path", k.route, "code", strconv.Itoa(k.code))
	}
}

// tenant returns (creating on first touch) the named tenant's series.
func (m *metrics) tenant(name string) *tenantMetrics {
	if name == "" {
		name = AnonTenant
	}
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tm, ok := m.tenantsByN[name]
	if !ok {
		tm = &tenantMetrics{queueWait: telemetry.NewHistogram(queueWaitBuckets)}
		m.tenantsByN[name] = tm
	}
	return tm
}

// tenantNames returns the known tenants in stable order.
func (m *metrics) tenantNames() []string {
	m.tmu.Lock()
	names := make([]string, 0, len(m.tenantsByN))
	for n := range m.tenantsByN {
		names = append(names, n)
	}
	m.tmu.Unlock()
	sort.Strings(names)
	return names
}

// request records one served HTTP request.
func (m *metrics) request(method, route string, code int) {
	k := requestKey{method: method, route: route, code: code}
	m.mu.Lock()
	m.httpRequests[k]++
	m.mu.Unlock()
}
