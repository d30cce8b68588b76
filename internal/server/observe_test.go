package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"resmod/internal/dist"
	"resmod/internal/exper"
	"resmod/internal/telemetry"
)

// newObsServer boots a service sampling aggressively so retention and
// alerting tests run in milliseconds instead of the production 10s.
func newObsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Trials == 0 {
		cfg.Trials = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Queue == 0 {
		cfg.Queue = 8
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv, hs
}

// getAlerts fetches and decodes /v1/alerts.
func getAlerts(t *testing.T, base string) alertsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/alerts = %d", resp.StatusCode)
	}
	var ar alertsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// alertState finds one rule instance's state in /v1/alerts ("" if absent).
func alertState(ar alertsResponse, rule, instance string) string {
	for _, a := range ar.Alerts {
		if a.Rule == rule && a.Instance == instance {
			return a.State
		}
	}
	return ""
}

// TestObservabilitySurfaces: the retention query endpoint, the alert
// endpoint and the alert metric families all answer on a freshly sampled
// server.
func TestObservabilitySurfaces(t *testing.T) {
	_, hs := newObsServer(t, Config{SampleEvery: 5 * time.Millisecond})

	// The sampler seeds immediately and ticks every 5ms; wait until the
	// queue-depth gauge has retained points.
	deadline := time.Now().Add(10 * time.Second)
	var sr telemetry.SeriesResponse
	for {
		resp, err := http.Get(hs.URL + "/v1/series?name=queue_depth")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/series?name= = %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue_depth series never accumulated points")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sr.Name != "queue_depth" {
		t.Fatalf("series name = %q", sr.Name)
	}

	// Bare endpoint: the index of names and windows.
	resp, err := http.Get(hs.URL + "/v1/series")
	if err != nil {
		t.Fatal(err)
	}
	var index telemetry.SeriesIndexResponse
	err = json.NewDecoder(resp.Body).Decode(&index)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(index.Series) == 0 || len(index.Windows) == 0 {
		t.Fatalf("series index = %+v", index)
	}

	// Bad query parameters are 400s, not empty 200s.
	for _, q := range []string{"?name=queue_depth&since=bogus", "?name=queue_depth&max=x"} {
		resp, err := http.Get(hs.URL + "/v1/series" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/series%s = %d, want 400", q, resp.StatusCode)
		}
	}

	// Alerts: the built-in rule set is visible and everything is quiet.
	ar := getAlerts(t, hs.URL)
	if len(ar.Rules) == 0 {
		t.Fatal("alerts response lists no rules")
	}
	if ar.Firing != 0 {
		t.Fatalf("idle server reports %d firing alerts: %+v", ar.Firing, ar.Alerts)
	}
	if st := alertState(ar, "queue-saturation", ""); st != telemetry.AlertInactive {
		t.Fatalf("queue-saturation on an idle server = %q, want inactive", st)
	}

	// Metric families: always present, even with nothing firing.
	text := scrape(t, hs.URL)
	for _, want := range []string{"# TYPE resmod_alerts gauge", "resmod_alerts_firing 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestCampaignStallAlert: a campaign whose Done count freezes trips the
// campaign-stall rule; when the campaign completes, the alert resolves.
// The campaign is synthetic — events published straight onto the
// server-wide bus — so the test controls exactly when progress freezes.
func TestCampaignStallAlert(t *testing.T) {
	srv, hs := newObsServer(t, Config{SampleEvery: 3 * time.Millisecond})

	srv.progress.Publish(telemetry.ProgressEvent{
		Kind: telemetry.KindCampaign, Key: "cid:v3/frozen",
		State: telemetry.StateRunning, Done: 10, Total: 100,
	})

	deadline := time.Now().Add(30 * time.Second)
	for alertState(getAlerts(t, hs.URL), "campaign-stall", "") != telemetry.AlertFiring {
		if time.Now().After(deadline) {
			t.Fatalf("campaign-stall never fired: %+v", getAlerts(t, hs.URL).Alerts)
		}
		time.Sleep(10 * time.Millisecond)
	}

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
	srv.progress.Publish(telemetry.ProgressEvent{
		Kind: telemetry.KindCampaign, Key: "cid:v3/frozen",
		State: telemetry.StateDone, Done: 100, Total: 100,
	})
	for alertState(getAlerts(t, hs.URL), "campaign-stall", "") != telemetry.AlertResolved {
		if time.Now().After(deadline) {
			t.Fatalf("campaign-stall never resolved: %+v", getAlerts(t, hs.URL).Alerts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(scrape(t, hs.URL), `resmod_alerts{rule="campaign-stall",state="resolved"} 3`) {
		t.Fatal("/metrics missing the resolved campaign-stall series")
	}
}

// TestWorkerStaleAlertEndToEnd drives a real firing→resolved incident
// through every surface at once: a registered worker goes silent, the
// per-instance worker-stale alert fires (visible on /v1/alerts, the
// /v1/events SSE stream, and /metrics), and resuming heartbeats
// resolves it.
func TestWorkerStaleAlertEndToEnd(t *testing.T) {
	// RetireAfter stays long so the silent worker remains rostered (and
	// alerting) instead of being retired out of the fleet mid-test.
	pool := dist.NewPool(dist.PoolConfig{
		HeartbeatTimeout: 20 * time.Millisecond,
		RetireAfter:      time.Minute,
	})
	rules := []telemetry.Rule{{
		Name: "worker-stale", Series: "worker_heartbeat_age_seconds/*",
		Threshold: 0.15, For: 20 * time.Millisecond,
		Help: "test-scaled stale-worker rule",
	}}
	srv, hs := newObsServer(t, Config{
		SampleEvery:    5 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		DistPool:       pool,
		AlertRules:     rules,
	})
	_ = srv

	// Watch the server-wide SSE stream for alert transitions.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, hs.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events = %d", resp.StatusCode)
	}
	var sseMu sync.Mutex
	var sseData strings.Builder
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sseMu.Lock()
			sseData.WriteString(sc.Text())
			sseData.WriteByte('\n')
			sseMu.Unlock()
		}
	}()
	sseSaw := func(substr string) bool {
		sseMu.Lock()
		defer sseMu.Unlock()
		return strings.Contains(sseData.String(), substr)
	}

	// A worker registers, heartbeats once, then goes silent.
	id := pool.Register("w1", "http://127.0.0.1:1")
	pool.Heartbeat(id, nil)

	deadline := time.Now().Add(30 * time.Second)
	for alertState(getAlerts(t, hs.URL), "worker-stale", "w1") != telemetry.AlertFiring {
		if time.Now().After(deadline) {
			t.Fatalf("worker-stale/w1 never fired: %+v", getAlerts(t, hs.URL).Alerts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(scrape(t, hs.URL),
		`resmod_alerts{rule="worker-stale",instance="w1",state="firing"} 2`) {
		t.Fatal("/metrics missing the firing worker-stale series")
	}

	// The worker comes back: heartbeats resume until the alert resolves.
	for alertState(getAlerts(t, hs.URL), "worker-stale", "w1") != telemetry.AlertResolved {
		pool.Heartbeat(id, nil)
		if time.Now().After(deadline) {
			t.Fatalf("worker-stale/w1 never resolved: %+v", getAlerts(t, hs.URL).Alerts)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The SSE stream carried both transitions as KindAlert events.
	for _, want := range []string{`"kind":"alert"`, `"key":"worker-stale/w1"`, `"state":"resolved"`} {
		for !sseSaw(want) {
			if time.Now().After(deadline) {
				sseMu.Lock()
				t.Fatalf("SSE stream missing %q:\n%s", want, sseData.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestRetiredWorkerAlertResolves: the pool retiring a worker is the one
// retirement signal.  A worker that goes silent fires worker-stale/w1;
// once RetireAfter empties the roster the alert resolves on its own (no
// heartbeat ever returns) and the worker's series leave the /v1/series
// index; the SSE stream replays the resolved transition.
func TestRetiredWorkerAlertResolves(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{
		HeartbeatTimeout: 20 * time.Millisecond,
		// Long enough that a stalled test process still polls inside the
		// firing window (it opens at ~120ms and closes at retirement).
		RetireAfter: 1500 * time.Millisecond,
	})
	_, hs := newObsServer(t, Config{
		SampleEvery: 5 * time.Millisecond,
		DistPool:    pool,
		AlertRules: []telemetry.Rule{{
			Name: "worker-stale", Series: "worker_heartbeat_age_seconds/*",
			Threshold: 0.1, For: 20 * time.Millisecond,
		}},
	})
	pool.Heartbeat(pool.Register("w1", "http://127.0.0.1:1"), nil)

	deadline := time.Now().Add(30 * time.Second)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, getAlerts(t, hs.URL).Alerts)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("worker-stale/w1 never fired", func() bool {
		return alertState(getAlerts(t, hs.URL), "worker-stale", "w1") == telemetry.AlertFiring
	})
	waitFor("pool never retired the silent worker", func() bool { return len(pool.Workers()) == 0 })
	// A few sampler ticks after the roster emptied, nothing is left.
	waitFor("alert outlived the retired worker", func() bool {
		ar := getAlerts(t, hs.URL)
		return ar.Firing == 0 && alertState(ar, "worker-stale", "w1") == ""
	})
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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); ; {
		if !sc.Scan() {
			t.Fatalf("SSE stream never carried worker-stale/w1 resolved: %v", sc.Err())
		}
		if line := sc.Text(); strings.Contains(line, `"key":"worker-stale/w1"`) &&
			strings.Contains(line, `"state":"resolved"`) {
			break
		}
	}
}

// TestDeterminismWithObservability: a prediction computed under
// aggressive sampling, alerting, and dashboard polling is byte-identical
// to one computed by a bare session — the observability layer observes,
// it never steers.
func TestDeterminismWithObservability(t *testing.T) {
	_, hs := newObsServer(t, Config{
		Trials: 10, Seed: 42, Workers: 2, Queue: 8,
		SampleEvery: time.Millisecond, // ~1000 samples/s while computing
	})

	// Poll the four surfaces `resmod top` reads, like an open dashboard.
	pollCtx, pollCancel := context.WithCancel(context.Background())
	defer pollCancel()
	go func() {
		for pollCtx.Err() == nil {
			for _, p := range []string{"/v1/status", "/v1/alerts", "/v1/cluster", "/v1/series?name=trials_total"} {
				if resp, err := http.Get(hs.URL + p); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	done := pollDone(t, hs.URL, v["id"].(string))
	pollCancel()
	resJSON, err := json.Marshal(done["result"])
	if err != nil {
		t.Fatal(err)
	}
	var got exper.PredictionRow
	if err := json.Unmarshal(resJSON, &got); err != nil {
		t.Fatal(err)
	}

	bare := exper.NewSession(exper.Config{Trials: 10, Seed: 42})
	want, err := exper.PredictOne(bare, "PENNANT", "", 4, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Wall times legitimately differ; everything else must not.
	got.SmallTime, got.SerialTime = 0, 0
	cmp := *want
	cmp.SmallTime, cmp.SerialTime = 0, 0
	if !reflect.DeepEqual(got, cmp) {
		t.Fatalf("observed run diverged from bare session:\n got %+v\nwant %+v", got, cmp)
	}
}
