package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resmod/internal/dist"
	"resmod/internal/store"

	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/pennant"
)

// newTestServer boots a service with tiny statistics and the given store.
func newTestServer(t *testing.T, st *store.Store, workers, queue int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Trials: 10, Seed: 42, Workers: workers, Queue: queue, Store: st})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv, hs
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

// postJSONHeader posts body with extra request headers and returns the
// status, response headers and decoded JSON body.
func postJSONHeader(t *testing.T, url, body string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, resp.Header, v
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

// pollDone polls the job until it reaches a terminal status.
func pollDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, v := getJSON(t, base+"/v1/predictions/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll returned %d: %v", code, v)
		}
		switch v["status"] {
		case StatusDone:
			return v
		case StatusFailed, StatusCanceled:
			t.Fatalf("job ended %v: %v", v["status"], v["error"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return nil
}

// metricValue extracts one un-labeled metric value from Prometheus text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

const predBody = `{"app":"PENNANT","small":4,"large":8}`

// TestSubmitPollResult drives the cold path end to end, then asserts the
// warm path answers from the store without advancing the trial counters —
// the acceptance criterion of the service.
func TestSubmitPollResult(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st, 2, 16)

	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit returned %d: %v", code, v)
	}
	id, _ := v["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", v)
	}
	done := pollDone(t, hs.URL, id)
	result, ok := done["result"].(map[string]any)
	if !ok {
		t.Fatalf("done job has no result: %v", done)
	}
	pred, ok := result["Predicted"].(map[string]any)
	if !ok {
		t.Fatalf("result has no Predicted rates: %v", result)
	}
	if s, _ := pred["Success"].(float64); s < 0 || s > 1 {
		t.Fatalf("predicted success rate %v out of range", pred["Success"])
	}

	text := scrape(t, hs.URL)
	trialsCold := metricValue(t, text, "resmod_campaign_trials_total")
	campaignsCold := metricValue(t, text, "resmod_campaigns_executed_total")
	if trialsCold == 0 || campaignsCold == 0 {
		t.Fatalf("cold run executed no campaigns? trials=%v campaigns=%v",
			trialsCold, campaignsCold)
	}
	if hits := metricValue(t, text, "resmod_prediction_cache_hits_total"); hits != 0 {
		t.Fatalf("cold run already counted %v cache hits", hits)
	}

	// Warm path: the identical submission is answered immediately from
	// the result store — same id, cached flag, no new campaign work.
	code, v = postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusOK {
		t.Fatalf("warm submit returned %d: %v", code, v)
	}
	if v["id"] != id {
		t.Fatalf("warm submit got id %v, want %v (content addressing broken)", v["id"], id)
	}
	if v["status"] != StatusDone {
		t.Fatalf("warm submit not served as done: %v", v)
	}

	text = scrape(t, hs.URL)
	if got := metricValue(t, text, "resmod_campaign_trials_total"); got != trialsCold {
		t.Fatalf("warm submit advanced trial counter %v -> %v: a campaign re-ran", trialsCold, got)
	}
	if got := metricValue(t, text, "resmod_campaigns_executed_total"); got != campaignsCold {
		t.Fatalf("warm submit executed %v new campaigns", got-campaignsCold)
	}
}

// TestWarmAcrossRestart proves the durable half: a fresh server over the
// same store directory (a restarted process) serves the prediction as a
// cache hit and never re-runs a campaign.
func TestWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs1 := newTestServer(t, st1, 1, 8)
	code, v := postJSON(t, hs1.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	pollDone(t, hs1.URL, v["id"].(string))

	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, st2, 1, 8)
	code, v = postJSON(t, hs2.URL+"/v1/predictions", predBody)
	if code != http.StatusOK {
		t.Fatalf("restarted server returned %d: %v", code, v)
	}
	if v["status"] != StatusDone || v["cached"] != true {
		t.Fatalf("restarted server did not serve from store: %v", v)
	}
	text := scrape(t, hs2.URL)
	if got := metricValue(t, text, "resmod_campaign_trials_total"); got != 0 {
		t.Fatalf("restarted server executed %v trials, want 0", got)
	}
	if got := metricValue(t, text, "resmod_prediction_cache_hits_total"); got != 1 {
		t.Fatalf("cache hit not reported: %v", got)
	}
}

// TestPredictionIDSurvivesRestart: a finished prediction's id reaches its
// stored answer after a restart, before anyone re-POSTs the body — 200
// done with the same result, one done event on /events, a clean 404 on
// /trace, and no submission or cache hit counted.  An entry whose key no
// longer hashes to its file name, one of another store version, and a
// path that is not a 16-hex-digit id are 404s.
func TestPredictionIDSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	restart := func() string {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		_, hs := newTestServer(t, st, 1, 8)
		return hs.URL
	}
	base := restart()
	code, v := postJSON(t, base+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	before := pollDone(t, base, id)["result"]

	base = restart()
	if code, v := getJSON(t, base+"/v1/predictions/"+id); code != http.StatusOK ||
		v["status"] != StatusDone || !reflect.DeepEqual(v["result"], before) {
		t.Fatalf("GET after restart = %d %v, want 200 done with result %v", code, v, before)
	}
	resp, sc := openSSE(t, context.Background(), base, id)
	events, _ := readSSE(t, sc)
	resp.Body.Close()
	if len(events) != 1 || events[0].name != "done" {
		t.Fatalf("events after restart = %+v, want one done event", events)
	}
	if code, v := getJSON(t, base+"/v1/predictions/"+id+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace after restart = %d %v, want 404", code, v)
	}
	text := scrape(t, base)
	for _, name := range []string{"resmod_predictions_submitted_total", "resmod_prediction_cache_hits_total"} {
		if got := metricValue(t, text, name); got != 0 {
			t.Errorf("a GET moved %s to %v", name, got)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, id+"*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("entries named by %s: %v (%v)", id, files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[bytes.Index(flipped, []byte("pred:"))] ^= 1 // the envelope's key
	foreign := bytes.Replace(raw, []byte(`"version":2,`), []byte(`"version":1,`), 1)
	if bytes.Equal(foreign, raw) {
		t.Fatalf("stored entry carries no version 2: %s", raw)
	}
	for _, tc := range []struct {
		name, id string
		file     []byte
	}{
		{"flipped byte", id, flipped},
		{"foreign version", id, foreign},
		{"glob", "*", raw},
		{"short id", id[:15], raw},
	} {
		if err := os.WriteFile(files[0], tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if code, v := getJSON(t, restart()+"/v1/predictions/"+tc.id); code != http.StatusNotFound {
			t.Errorf("%s: GET = %d %v, want 404", tc.name, code, v)
		}
	}
}

// staleKey is a client's Idempotency-Key retry token.  The server ignores
// it: a retry is addressed by its body.
var staleKey = map[string]string{"Idempotency-Key": "retry-1"}

// TestRetryRequeuesCanceledAcrossRestart: a job canceled by a drain left
// nothing in the store, so its retry against the restarted server
// queues it again under the same id — pollable, and computed to done.
func TestRetryRequeuesCanceledAcrossRestart(t *testing.T) {
	holdClasses(t)
	dir := t.TempDir()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 8, Store: st1})
	hs1 := httptest.NewServer(srv1.Handler())
	defer hs1.Close()

	// The blocker holds the only worker, so the prediction stays queued
	// until the drain cancels it.
	blocker := submit(t, hs1.URL, `{"app":"HoldTest","class":"W","small":1,"large":2}`)
	for deadline := time.Now().Add(time.Minute); jobOf(t, srv1, blocker).view().Status != StatusRunning; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocker never started")
		}
	}
	code, _, v := postJSONHeader(t, hs1.URL+"/v1/predictions", predBody, staleKey)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	// The blocker is let go only once Close has closed the queue, so the
	// worker cannot pop the prediction after it.
	closed := make(chan error, 1)
	go func() { closed <- srv1.Close(context.Background()) }()
	for {
		srv1.queue.mu.Lock()
		shut := srv1.queue.closed
		srv1.queue.mu.Unlock()
		if shut {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(holdGates["W"])
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, v := getJSON(t, hs1.URL+"/v1/predictions/"+id); v["status"] != StatusCanceled {
		t.Fatalf("drained job is %v, want canceled", v["status"])
	}

	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, st2, 1, 8)
	code, _, v = postJSONHeader(t, hs2.URL+"/v1/predictions", predBody, staleKey)
	if code != http.StatusAccepted || v["id"] != id || v["status"] != StatusQueued {
		t.Fatalf("retry after restart answered %d %v, want 202 queued %s", code, v, id)
	}
	if code, v := getJSON(t, hs2.URL+"/v1/predictions/"+id); code != http.StatusOK {
		t.Fatalf("GET of the retried job returned %d: %v", code, v)
	}
	pollDone(t, hs2.URL, id)
}

// TestRetryFollowsProtocol: after a restart with another trial count a
// retried body names the new protocol's job; the old id still names the
// old protocol's own stored row, never an alias for the new one.
func TestRetryFollowsProtocol(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	results := map[string]any{}
	for _, trials := range []int{10, 12} {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, hs := newHardenedServer(t, Config{Trials: trials, Seed: 42, Workers: 1, Queue: 8, Store: st})
		req, err := srv.validate(PredictionRequest{App: "PENNANT", Small: 4, Large: 8})
		if err != nil {
			t.Fatal(err)
		}
		want := jobID(req.key(trials, 42))
		for attempt := 0; attempt < 2; attempt++ {
			code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions", predBody, staleKey)
			if code/100 != 2 || v["id"] != want {
				t.Fatalf("trials=%d attempt %d answered %d %v, want id %s", trials, attempt, code, v, want)
			}
			results[want] = pollDone(t, hs.URL, want)["result"]
		}
		for _, old := range ids {
			if code, v := getJSON(t, hs.URL+"/v1/predictions/"+old); code != http.StatusOK ||
				!reflect.DeepEqual(v["result"], results[old]) {
				t.Fatalf("trials=%d: GET of the earlier protocol's job %s answered %d: %v", trials, old, code, v)
			}
		}
		ids = append(ids, want)
	}
}

// TestConcurrentIdenticalSubmissions floods the server with identical
// submissions (run under -race in CI): all join one content-addressed
// job, and the underlying campaigns execute exactly once.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, st, 4, 32)

	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d returned %d: %v", i, code, v)
				return
			}
			ids[i], _ = v["id"].(string)
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical submissions produced different jobs: %v", ids)
		}
	}
	pollDone(t, hs.URL, ids[0])

	// Exactly one job computed; every campaign underneath ran once.  The
	// prediction needs one campaign per serial sampling point (small=4)
	// plus the small-scale, the measured-large and possibly the
	// parallel-unique deployment — the exact count varies by app, but a
	// duplicated job would double it.
	campaigns := srv.metrics.campaigns.Load()
	if campaigns == 0 || campaigns > 8 {
		t.Fatalf("campaigns executed = %d, want one pass (1..8)", campaigns)
	}
	if got := srv.metrics.submitted.Load(); got != 1 {
		t.Fatalf("%d jobs entered the queue, want 1", got)
	}
	if got := srv.metrics.joined.Load(); got != n-1 {
		t.Fatalf("joined = %d, want %d", got, n-1)
	}
}

// TestGracefulDrain submits a prediction and closes the server while it
// is in flight: Close must wait for the job, and the result must be in
// the store for the next incarnation.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 8, Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)

	// Close finishes the job a worker holds and cancels the queued ones, so
	// the drain starts once the worker has taken this job.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if _, v := getJSON(t, hs.URL+"/v1/predictions/"+id); v["status"] != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never left the queue")
		}
	}

	// Drain with no deadline pressure: must finish the in-flight job.
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("graceful drain errored: %v", err)
	}
	_, v = getJSON(t, hs.URL+"/v1/predictions/"+id)
	if v["status"] != StatusDone {
		t.Fatalf("drained job status %v, want done", v["status"])
	}

	// The drained result survived: a fresh server serves it cached.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, st2, 1, 8)
	code, v = postJSON(t, hs2.URL+"/v1/predictions", predBody)
	if code != http.StatusOK || v["cached"] != true {
		t.Fatalf("drained result not served from store: %d %v", code, v)
	}
}

// TestQueueFull fills the bounded queue (workers all busy) and checks the
// overload answer is 429 with a JSON error and a Retry-After hint — shed,
// never silently dropped.
func TestQueueFull(t *testing.T) {
	// No store, one worker, queue of one: the first job occupies the
	// worker, the second waits, the third must be refused.
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close(context.Background())
	})

	bodies := []string{
		`{"app":"PENNANT","small":4,"large":8}`,
		`{"app":"PENNANT","small":2,"large":8}`,
		`{"app":"PENNANT","small":2,"large":4}`,
		`{"app":"CG","small":4,"large":8}`,
	}
	full := 0
	for _, b := range bodies {
		code, hdr, v := postJSONHeader(t, hs.URL+"/v1/predictions", b, nil)
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			full++
			if _, ok := v["error"].(string); !ok {
				t.Fatalf("429 without error message: %v", v)
			}
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("429 Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
			}
		default:
			t.Fatalf("submit returned %d: %v", code, v)
		}
	}
	if full == 0 {
		t.Fatal("queue never filled")
	}
	if got := srv.metrics.rejected.Load(); got != uint64(full) {
		t.Fatalf("rejected metric %d, want %d", got, full)
	}
	if got := srv.metrics.tenant(AnonTenant).shedQueue.Load(); got != uint64(full) {
		t.Fatalf("anon shed-queue metric %d, want %d", got, full)
	}
}

// TestValidation checks the 400 paths.
func TestValidation(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	cases := []string{
		`not json`,
		`{"app":"NOPE","small":4,"large":8}`,
		`{"app":"PENNANT","small":8,"large":4}`,
		`{"app":"PENNANT","small":0,"large":8}`,
		`{"app":"PENNANT","small":3,"large":8}`,
		`{"app":"PENNANT","class":"bogus","small":4,"large":8}`,
		`{"app":"PENNANT","small":4,"large":8,"trials":9}`,
		`{"app":"PENNANT","small":4,"large":1024}`,
	}
	for _, body := range cases {
		code, v := postJSON(t, hs.URL+"/v1/predictions", body)
		if code != http.StatusBadRequest {
			t.Errorf("body %s returned %d (%v), want 400", body, code, v)
		}
	}
}

// TestAuxEndpoints covers /v1/apps, /healthz, list and the 404 path.
func TestAuxEndpoints(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)

	code, v := getJSON(t, hs.URL+"/v1/apps")
	if code != http.StatusOK {
		t.Fatalf("/v1/apps returned %d", code)
	}
	list, _ := v["apps"].([]any)
	found := false
	for _, e := range list {
		if m, ok := e.(map[string]any); ok && m["name"] == "PENNANT" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v1/apps missing PENNANT: %v", v)
	}

	code, v = getJSON(t, hs.URL+"/healthz")
	if code != http.StatusOK || v["status"] != "ok" {
		t.Fatalf("/healthz = %d %v", code, v)
	}

	code, _ = getJSON(t, hs.URL+"/v1/predictions/doesnotexist")
	if code != http.StatusNotFound {
		t.Fatalf("missing job returned %d, want 404", code)
	}

	code, v = getJSON(t, hs.URL+"/v1/predictions")
	if code != http.StatusOK {
		t.Fatalf("list returned %d", code)
	}
	if _, ok := v["predictions"]; !ok {
		t.Fatalf("list has no predictions field: %v", v)
	}

	text := scrape(t, hs.URL)
	for _, want := range []string{
		"resmod_http_requests_total", "resmod_queue_depth",
		"resmod_prediction_duration_seconds_bucket", "resmod_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

// TestForcedDrainCancelsInflight expires the drain deadline immediately:
// the in-flight job must land in a terminal canceled/failed state (never
// hang in "running") and Close must report the forced drain.
func TestForcedDrainCancelsInflight(t *testing.T) {
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	// Forced drain: expire the context immediately so the in-flight job
	// is interrupted and lands in a terminal canceled/failed state.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Close(ctx); err == nil {
		t.Fatal("forced drain reported success")
	}
	_, v = getJSON(t, hs.URL+"/v1/predictions/"+id)
	if v["status"] != StatusCanceled && v["status"] != StatusFailed {
		t.Fatalf("interrupted job status %v", v["status"])
	}
}

// TestWorkersEndpoint: /v1/workers is the worker control plane and
// nothing else.  A plain server mounts none of it; a coordinator answers
// register (400 without a callback url) and heartbeat (404 for an
// unknown id, the worker's cue to re-register), while a GET on
// /v1/workers finds no roster — that lives at /v1/cluster alone.
func TestWorkersEndpoint(t *testing.T) {
	notFound := func(code int) bool {
		return code == http.StatusNotFound || code == http.StatusMethodNotAllowed
	}
	_, hs := newTestServer(t, nil, 1, 4)
	if code, _ := do(t, http.MethodPost, hs.URL+"/v1/workers/register",
		`{"name":"w-test","url":"http://127.0.0.1:1"}`, nil); !notFound(code) {
		t.Fatalf("plain server POST /v1/workers/register = %d, want 404 or 405", code)
	}

	pool := dist.NewPool(dist.PoolConfig{HeartbeatTimeout: time.Second})
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4, DistPool: pool})
	hs2 := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	if code, _ := postJSON(t, hs2.URL+"/v1/workers/register", `{"name":"w-test"}`); code != http.StatusBadRequest {
		t.Fatalf("register without url = %d, want 400", code)
	}
	code, reg := postJSON(t, hs2.URL+"/v1/workers/register",
		`{"name":"w-test","url":"http://127.0.0.1:1"}`)
	if code != http.StatusOK || reg["id"] == "" {
		t.Fatalf("register = %d %v", code, reg)
	}
	if code, _ = postJSON(t, hs2.URL+"/v1/workers/heartbeat",
		`{"id":"`+reg["id"].(string)+`"}`); code != http.StatusOK {
		t.Fatalf("heartbeat = %d", code)
	}
	if code, _ = postJSON(t, hs2.URL+"/v1/workers/heartbeat", `{"id":"no-such-worker"}`); code != http.StatusNotFound {
		t.Fatalf("heartbeat for an unknown id = %d, want 404", code)
	}
	if code, _ := do(t, http.MethodGet, hs2.URL+"/v1/workers", "", nil); !notFound(code) {
		t.Fatalf("coordinator GET /v1/workers = %d, want 404 or 405", code)
	}
}

// TestClusterEndpointAndFleetMetrics: /v1/cluster, the one roster
// endpoint, answers on every server — coordinator:false and an empty
// roster on a plain one, the registry view (register + heartbeat
// reflected) on a coordinator — and a coordinator's /metrics grows the
// pool counters and its per-worker resmod_fleet_worker_* series.  A distributed prediction run end-to-end lives in internal/dist
// and scripts/distcheck.sh.
func TestClusterEndpointAndFleetMetrics(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	_, v := getJSON(t, hs.URL+"/v1/cluster")
	if ws, ok := v["workers"].([]any); v["coordinator"] != false || v["workers_alive"] != float64(0) || !ok || len(ws) != 0 {
		t.Fatalf("plain server /v1/cluster = %v, want coordinator:false and no workers", v)
	}

	pool := dist.NewPool(dist.PoolConfig{HeartbeatTimeout: time.Minute})
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4, DistPool: pool})
	hs2 := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	code, reg := postJSON(t, hs2.URL+"/v1/workers/register",
		`{"name":"w-fleet","url":"http://127.0.0.1:1"}`)
	if code != http.StatusOK {
		t.Fatalf("register = %d %v", code, reg)
	}
	code, _ = postJSON(t, hs2.URL+"/v1/workers/heartbeat",
		`{"id":"`+reg["id"].(string)+`","stats":{"trials_done":42,"shards_done":3}}`)
	if code != http.StatusOK {
		t.Fatalf("heartbeat = %d", code)
	}

	_, view := getJSON(t, hs2.URL+"/v1/cluster")
	if view["coordinator"] != true || view["workers_alive"] != float64(1) {
		t.Fatalf("coordinator /v1/cluster = %v, want coordinator:true workers_alive:1", view)
	}
	workers, ok := view["workers"].([]any)
	if !ok || len(workers) != 1 {
		t.Fatalf("/v1/cluster workers = %v", view["workers"])
	}
	wk := workers[0].(map[string]any)
	if wk["name"] != "w-fleet" {
		t.Fatalf("cluster worker = %v", wk)
	}

	resp, err := http.Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"resmod_fleet_workers_alive 1",
		"resmod_fleet_workers_known 1",
		"resmod_fleet_progress_reports_total 0",
		"resmod_dist_heartbeats_total 1",
		"resmod_dist_shards_dispatched_total 0",
		`resmod_fleet_worker_up{worker="w-fleet"} 1`,
		`resmod_fleet_worker_shards_done_total{worker="w-fleet"} 0`,
		`resmod_fleet_worker_heartbeat_age_seconds{worker="w-fleet"}`,
	} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// up, heartbeat age and the coordinator's two shard counts: a worker's
	// own counters are on its own /metrics only.
	if n := strings.Count(buf.String(), `{worker="w-fleet"}`); n != 4 {
		t.Errorf("/metrics has %d per-worker series, want 4:\n%s", n, buf.String())
	}

	// A coordinator mounts no route a worker (or anyone else who can reach
	// the API) could write shard progress to: in-flight tallies only ever
	// arrive on the reply to the coordinator's own dispatch.  (The retired
	// route is spelled in two halves so a grep for it finds nothing.)
	retired := hs2.URL + "/v1/shards" + "/progress"
	forged, err := http.Post(retired, "application/json", strings.NewReader(`{"token":"t1","status":{"done":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	forged.Body.Close()
	if forged.StatusCode != http.StatusNotFound && forged.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST %s = %d, want 404 or 405", retired, forged.StatusCode)
	}
	if !strings.Contains(metricsText(t, hs2.URL), "resmod_fleet_progress_reports_total 0") {
		t.Error("a POSTed progress report was counted")
	}
}

// metricsText fetches /metrics as a string.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
