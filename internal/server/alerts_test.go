package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"resmod/internal/dist"
	"resmod/internal/telemetry"
)

// Every built-in rule is tested here by causing the fault it names
// through the server's own surfaces, with the rule exactly as
// BuiltinRules declares it.  The server samples at the production 10 s
// cadence; a ruleWatch drives its sampler by hand at synthetic 10 s
// steps, so For durations and the store's 10 s buckets behave as in
// service while each test runs in milliseconds.

// ruleWatch steps one server's sampler and follows one rule instance on
// /v1/alerts.
type ruleWatch struct {
	t              *testing.T
	srv            *Server
	base           string
	rule, instance string
	boot, now      time.Time
	seen           []string // successive distinct states, absent instance omitted
}

// watchRule waits for the sampler's seed tick (it runs once at boot, and
// next only after a whole sampling period) and starts the synthetic
// clock an hour past it, so no real tick can share a bucket with a
// synthetic one.
func watchRule(t *testing.T, srv *Server, base, rule, instance string) *ruleWatch {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := srv.series.Latest(seriesQueueDepth); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sampler never took its seed tick")
		}
	}
	boot := time.Now()
	return &ruleWatch{t: t, srv: srv, base: base, rule: rule, instance: instance, boot: boot, now: boot.Add(time.Hour)}
}

// step runs fault (when non-nil), then one sampler tick a sampling
// period after the previous one — which evaluates the rules — and
// returns the instance's state on /v1/alerts ("" while absent).
func (w *ruleWatch) step(fault func()) string {
	w.t.Helper()
	if fault != nil {
		fault()
	}
	if time.Since(w.boot) >= w.srv.cfg.SampleEvery {
		w.t.Fatalf("the test outlived the %v sampling period: a real sampler tick may have interleaved", w.srv.cfg.SampleEvery)
	}
	w.now = w.now.Add(w.srv.cfg.SampleEvery)
	w.srv.sampler.SampleNow(w.now)
	st := alertState(getAlerts(w.t, w.base), w.rule, w.instance)
	if n := len(w.seen); st != "" && (n == 0 || w.seen[n-1] != st) {
		w.seen = append(w.seen, st)
	}
	return st
}

// until steps under fault until the instance reaches state.
func (w *ruleWatch) until(state string, maxSteps int, fault func()) {
	w.t.Helper()
	for i := 0; i < maxSteps; i++ {
		if w.step(fault) == state {
			return
		}
	}
	w.t.Fatalf("%s %q never reached %s in %d steps; states %v", w.rule, w.instance, state, maxSteps, w.seen)
}

// lifecycle checks the instance went exactly inactive → pending →
// firing → resolved.
func (w *ruleWatch) lifecycle() {
	w.t.Helper()
	want := []string{telemetry.AlertInactive, telemetry.AlertPending, telemetry.AlertFiring, telemetry.AlertResolved}
	if !reflect.DeepEqual(w.seen, want) {
		w.t.Fatalf("%s %q went %v, want %v", w.rule, w.instance, w.seen, want)
	}
}

// fakeWorker rosters a worker on pool whose POST /v1/shards waits for
// release and then fails: a held dispatch until then, a failing one
// after.  The coordinator requeues a failed chunk and runs it locally.
func fakeWorker(t *testing.T, pool *dist.Pool, name string) (release func()) {
	t.Helper()
	held := make(chan struct{})
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-held:
		case <-r.Context().Done():
		}
		http.Error(w, "shard refused", http.StatusServiceUnavailable)
	}))
	var once sync.Once
	release = func() { once.Do(func() { close(held) }) }
	t.Cleanup(func() { release(); ws.Close() })
	pool.Register(name, ws.URL)
	return release
}

// submit posts a prediction and returns its job id.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	code, v := postJSON(t, base+"/v1/predictions", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s = %d: %v", body, code, v)
	}
	return v["id"].(string)
}

// TestShedRateAlert: anonymous submissions over the tier's rate are shed
// with 429; a sustained shed rate fires shed-rate, and it resolves once
// the clients back off.
func TestShedRateAlert(t *testing.T) {
	srv, hs := newObsServer(t, Config{AnonLimits: TenantLimits{Rate: 0.0001, Burst: 1}})
	// The burst's one token goes to a request that fails validation.
	if code, v := postJSON(t, hs.URL+"/v1/predictions", `{}`); code != http.StatusBadRequest {
		t.Fatalf("burst request = %d: %v", code, v)
	}
	w := watchRule(t, srv, hs.URL, "shed-rate", "")
	w.until(telemetry.AlertInactive, 2, nil)
	overRate := func() { // 12 sheds in a 10 s step: 1.2/s against 1/s
		for i := 0; i < 12; i++ {
			if code, v := postJSON(t, hs.URL+"/v1/predictions", predBody); code != http.StatusTooManyRequests {
				t.Fatalf("over-rate submission = %d: %v", code, v)
			}
		}
	}
	w.until(telemetry.AlertFiring, 6, overRate)
	w.until(telemetry.AlertResolved, 6, nil)
	w.lifecycle()
}

// TestQueueSaturationAlert: with the only job worker held by a dispatch
// that does not answer, two more submissions fill the two-slot queue and
// fire queue-saturation; once the held job is let go the queue drains
// and the alert resolves.
func TestQueueSaturationAlert(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{})
	srv, hs := newObsServer(t, Config{Queue: 2, DistPool: pool})
	release := fakeWorker(t, pool, "held")
	w := watchRule(t, srv, hs.URL, "queue-saturation", "")
	w.until(telemetry.AlertInactive, 1, nil)

	held := submit(t, hs.URL, `{"app":"PENNANT","small":4,"large":8}`)
	for deadline := time.Now().Add(10 * time.Second); srv.queue.depth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held job never left the queue")
		}
	}
	queued := []string{
		submit(t, hs.URL, `{"app":"PENNANT","small":2,"large":8}`),
		submit(t, hs.URL, `{"app":"PENNANT","small":2,"large":4}`),
	}
	w.until(telemetry.AlertFiring, 6, nil)

	release()
	for _, id := range append(queued, held) {
		pollDone(t, hs.URL, id)
	}
	w.until(telemetry.AlertResolved, 6, nil)
	w.lifecycle()
}

// TestDispatchFailuresAlert: a coordinator whose one worker fails every
// POST /v1/shards requeues each campaign's chunk; a new prediction per
// step keeps the requeue rate up and fires dist-dispatch-failures, which
// resolves once no more campaigns are dispatched.
func TestDispatchFailuresAlert(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{})
	srv, hs := newObsServer(t, Config{DistPool: pool})
	fakeWorker(t, pool, "failing")() // released at once: every dispatch fails
	w := watchRule(t, srv, hs.URL, "dist-dispatch-failures", "")
	w.until(telemetry.AlertInactive, 2, nil)

	large := 2
	failingJob := func() { // each job's new large-scale campaign requeues once at least
		large *= 2
		pollDone(t, hs.URL, submit(t, hs.URL, fmt.Sprintf(`{"app":"PENNANT","small":2,"large":%d}`, large)))
	}
	w.until(telemetry.AlertFiring, 6, failingJob)
	if st := pool.Stats(); st.ShardsRequeued == 0 || st.ShardsCompleted != 0 {
		t.Fatalf("pool stats %+v, want requeues and no worker-completed shard", st)
	}
	w.until(telemetry.AlertResolved, 2, nil)
	w.lifecycle()
}

// TestCampaignStallAlert: a campaign whose Done count freezes trips the
// campaign-stall rule; when the campaign completes, the alert resolves.
// The campaign is synthetic — events published straight onto the
// server-wide bus — so the test controls exactly when progress freezes.
func TestCampaignStallAlert(t *testing.T) {
	srv, hs := newObsServer(t, Config{})
	w := watchRule(t, srv, hs.URL, "campaign-stall", "")
	srv.progress.Publish(telemetry.ProgressEvent{
		Kind: telemetry.KindCampaign, Key: "cid:v3/frozen",
		State: telemetry.StateRunning, Done: 10, Total: 100,
	})
	w.until(telemetry.AlertInactive, 1, nil)
	w.until(telemetry.AlertFiring, 6, nil)

	// Firing is visible on /metrics and as a KindAlert event on the bus.
	text := scrape(t, hs.URL)
	if !strings.Contains(text, `resmod_alerts{rule="campaign-stall",state="firing"} 2`) {
		t.Fatalf("/metrics missing the firing campaign-stall series:\n%s", text)
	}
	sawBusAlert := false
	for _, ev := range srv.progress.Latest() {
		if ev.Kind == telemetry.KindAlert && ev.Key == "campaign-stall" {
			sawBusAlert = true
		}
	}
	if !sawBusAlert {
		t.Fatal("no campaign-stall alert event on the progress bus")
	}

	// The campaign finishes: the stall gauge drops and the alert resolves.
	w.until(telemetry.AlertResolved, 1, func() {
		srv.progress.Publish(telemetry.ProgressEvent{
			Kind: telemetry.KindCampaign, Key: "cid:v3/frozen",
			State: telemetry.StateDone, Done: 100, Total: 100,
		})
	})
	w.lifecycle()
	if !strings.Contains(scrape(t, hs.URL), `resmod_alerts{rule="campaign-stall",state="resolved"} 3`) {
		t.Fatal("/metrics missing the resolved campaign-stall series")
	}
}

// sseRecorder collects the server-wide /v1/events stream.
func sseRecorder(t *testing.T, base string) (saw func(substr string) bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events = %d", resp.StatusCode)
	}
	var mu sync.Mutex
	var data strings.Builder
	go func() {
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			mu.Lock()
			data.WriteString(sc.Text() + "\n")
			mu.Unlock()
		}
	}()
	return func(substr string) bool {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			ok := strings.Contains(data.String(), substr)
			mu.Unlock()
			if ok || time.Now().After(deadline) {
				return ok
			}
		}
	}
}

// TestWorkerStaleAlertEndToEnd drives a firing→resolved incident through
// every surface at once: a registered worker goes silent past the pool's
// heartbeat timeout, the per-instance worker-stale alert fires (visible
// on /v1/alerts, the /v1/events SSE stream, and /metrics), and resuming
// heartbeats resolves it.  The rule reads the pool's own liveness
// judgement, so it follows the configured timeout: a silence that is
// stale at 20 ms is not at 150 ms.
func TestWorkerStaleAlertEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		quiet   time.Duration // a silence the pool still counts alive
	}{
		{timeout: 20 * time.Millisecond},
		{timeout: 150 * time.Millisecond, quiet: 50 * time.Millisecond},
	} {
		t.Run(tc.timeout.String(), func(t *testing.T) {
			// RetireAfter stays long so the silent worker remains rostered
			// (and alerting) instead of being retired out of the fleet.
			pool := dist.NewPool(dist.PoolConfig{HeartbeatTimeout: tc.timeout, RetireAfter: time.Minute})
			srv, hs := newObsServer(t, Config{DistPool: pool})
			sseSaw := sseRecorder(t, hs.URL)
			w := watchRule(t, srv, hs.URL, "worker-stale", "w1")
			id := pool.Register("w1", "http://127.0.0.1:1")
			heartbeat := func() { pool.Heartbeat(id) }
			w.until(telemetry.AlertInactive, 1, heartbeat)
			if tc.quiet > 0 {
				time.Sleep(tc.quiet)
				w.until(telemetry.AlertInactive, 1, nil)
			}

			time.Sleep(tc.timeout + 5*time.Millisecond)
			w.until(telemetry.AlertFiring, 4, nil)
			if !strings.Contains(scrape(t, hs.URL),
				`resmod_alerts{rule="worker-stale",instance="w1",state="firing"} 2`) {
				t.Fatal("/metrics missing the firing worker-stale series")
			}
			w.until(telemetry.AlertResolved, 3, heartbeat)
			w.lifecycle()

			// The SSE stream carried the transitions as alert events.
			for _, want := range []string{`"kind":"alert","key":"worker-stale/w1","state":"firing"`,
				`"kind":"alert","key":"worker-stale/w1","state":"resolved"`} {
				if !sseSaw(want) {
					t.Fatalf("SSE stream missing %q", want)
				}
			}
		})
	}
}

// TestWorkerFlapAlert: a worker whose heartbeats toggle around the
// pool's 20 ms timeout flips alive↔dead on every step; the sustained
// flap rate fires worker-flap, and steady heartbeats resolve it.
func TestWorkerFlapAlert(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{HeartbeatTimeout: 20 * time.Millisecond, RetireAfter: time.Minute})
	srv, hs := newObsServer(t, Config{DistPool: pool})
	w := watchRule(t, srv, hs.URL, "worker-flap", "w1")
	id := pool.Register("w1", "http://127.0.0.1:1")
	heartbeat := func() { pool.Heartbeat(id) }
	w.until(telemetry.AlertInactive, 2, heartbeat)

	alive := true
	toggle := func() {
		if alive = !alive; alive {
			heartbeat()
		} else {
			time.Sleep(25 * time.Millisecond)
		}
	}
	w.until(telemetry.AlertFiring, 6, toggle)
	w.until(telemetry.AlertResolved, 3, heartbeat)
	w.lifecycle()
}

// TestRetiredWorkerAlertResolves: the pool retiring a worker is the one
// retirement signal.  A worker that goes silent fires worker-stale/w1;
// once RetireAfter empties the roster the next tick resolves the alert
// on its own (no heartbeat ever returns), the worker's series leave the
// /v1/series index, and the SSE stream replays the resolved transition.
func TestRetiredWorkerAlertResolves(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{
		HeartbeatTimeout: 20 * time.Millisecond,
		RetireAfter:      300 * time.Millisecond,
	})
	srv, hs := newObsServer(t, Config{DistPool: pool})
	w := watchRule(t, srv, hs.URL, "worker-stale", "w1")
	pool.Heartbeat(pool.Register("w1", "http://127.0.0.1:1"))
	time.Sleep(25 * time.Millisecond)
	w.until(telemetry.AlertFiring, 4, nil)

	for deadline := time.Now().Add(5 * time.Second); len(pool.Workers()) != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("pool never retired the silent worker")
		}
	}
	if st := w.step(nil); st != "" {
		t.Fatalf("worker-stale/w1 outlived the retired worker as %q", st)
	}
	if ar := getAlerts(t, hs.URL); ar.Firing != 0 {
		t.Fatalf("%d alerts still firing: %+v", ar.Firing, ar.Alerts)
	}
	if text := scrape(t, hs.URL); !strings.Contains(text, "resmod_alerts_firing 0\n") ||
		strings.Contains(text, `instance="w1"`) {
		t.Fatalf("/metrics still shows the retired worker's alert:\n%s", text)
	}
	_, index := getJSON(t, hs.URL+"/v1/series")
	for _, name := range index["series"].([]any) {
		if strings.HasSuffix(name.(string), "/w1") {
			t.Errorf("/v1/series index still lists %s", name)
		}
	}
	if !sseRecorder(t, hs.URL)(`"key":"worker-stale/w1","state":"resolved"`) {
		t.Fatal("SSE stream never replayed worker-stale/w1 resolved")
	}
}
