package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
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

// wantSeriesIndex waits until the /v1/series index lists every wanted
// name (a counter's first rate needs two sampler ticks) and fails unless
// it lists exactly those, so a series no reader needs cannot be retained
// unnoticed.
func wantSeriesIndex(t *testing.T, base string, want ...string) {
	t.Helper()
	slices.Sort(want)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/series")
		if err != nil {
			t.Fatal(err)
		}
		var index telemetry.SeriesIndexResponse
		err = json.NewDecoder(resp.Body).Decode(&index)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(index.Windows) == 0 {
			t.Fatalf("series index lists no windows: %+v", index)
		}
		missing := slices.ContainsFunc(want, func(n string) bool { return !slices.Contains(index.Series, n) })
		if !missing {
			if !slices.Equal(index.Series, want) {
				t.Fatalf("series index = %v, want exactly %v", index.Series, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("series index = %v, never listed all of %v", index.Series, want)
		}
	}
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

	// Bare endpoint: the index of names and windows.  An idle server
	// without a fleet keeps what its rules, smoke and the benchmark read.
	wantSeriesIndex(t, hs.URL, "campaigns_stalled", "queue_depth", "queue_saturation",
		"sheds_total", "trials_total")

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

// TestWorkerSeriesEndpoint: a worker's history is retained in one
// place, the coordinator, and only as its liveness: the index gains the
// worker's up and flap series and nothing of its own counters, and the
// worker itself serves no series.
func TestWorkerSeriesEndpoint(t *testing.T) {
	pool := dist.NewPool(dist.PoolConfig{HeartbeatTimeout: time.Second})
	_, hs := newObsServer(t, Config{SampleEvery: 5 * time.Millisecond, DistPool: pool})
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: hs.URL, Listen: "127.0.0.1:0", Name: "tw0", HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(telemetry.With(context.Background(),
		telemetry.New(nil, nil, telemetry.NewRecorder())))
	t.Cleanup(cancel)
	go func() { _ = w.Run(ctx) }()

	// The coordinator's index: the idle set and the fleet rules' series,
	// nothing else.
	wantSeriesIndex(t, hs.URL, "campaigns_stalled", "queue_depth", "queue_saturation",
		"sheds_total", "trials_total", "dist_shards_requeued_total", "worker_up/tw0",
		"worker_flaps_total/tw0")
	resp, err := http.Get(pool.Workers()[0].URL + "/v1/series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("worker GET /v1/series = %s, want 404", resp.Status)
	}
}

// TestDeterminismWithObservability: a prediction computed under
// aggressive sampling, alerting, and operator polling is byte-identical
// to one computed by a bare session — the observability layer observes,
// it never steers.
func TestDeterminismWithObservability(t *testing.T) {
	_, hs := newObsServer(t, Config{
		Trials: 10, Seed: 42, Workers: 2, Queue: 8,
		SampleEvery: time.Millisecond, // ~1000 samples/s while computing
	})

	// Poll the four operator surfaces, as a client watching the run would.
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
