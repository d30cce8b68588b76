package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newHardenedServer boots a service with the given tenancy config.
func newHardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
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

// ---- token bucket / quota unit tests --------------------------------------

// TestTokenBucket drives the rate limiter with a fake clock: burst
// admits, then refusal with an honest wait, then refill admits again.
func TestTokenBucket(t *testing.T) {
	tn := newTenants(nil, TenantLimits{}, TenantLimits{Rate: 2, Burst: 2})
	now := time.Unix(1000, 0)
	tn.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := tn.allow(AnonTenant); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, wait := tn.allow(AnonTenant)
	if ok {
		t.Fatal("third request admitted past burst")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want (0, 500ms]-ish at rate 2/s", wait)
	}
	now = now.Add(time.Second) // refills 2 tokens
	if ok, _ := tn.allow(AnonTenant); !ok {
		t.Fatal("request refused after refill")
	}
}

// TestInflightQuotaUnit checks acquire/release bookkeeping.
func TestInflightQuotaUnit(t *testing.T) {
	tn := newTenants(map[string]string{"k": "alice"},
		TenantLimits{MaxInflight: 2}, TenantLimits{MaxInflight: 1})
	if !tn.acquire(AnonTenant) {
		t.Fatal("first anon acquire refused")
	}
	if tn.acquire(AnonTenant) {
		t.Fatal("anon quota of 1 admitted a second job")
	}
	// Tenants are isolated: alice's quota is untouched by anon pressure.
	if !tn.acquire("alice") || !tn.acquire("alice") {
		t.Fatal("alice refused within her quota")
	}
	if tn.acquire("alice") {
		t.Fatal("alice admitted past her quota")
	}
	tn.release(AnonTenant)
	if !tn.acquire(AnonTenant) {
		t.Fatal("anon refused after release")
	}
}

// TestResolveTenant covers key extraction and the 401 path.
func TestResolveTenant(t *testing.T) {
	tn := newTenants(map[string]string{"sekrit": "alice"}, TenantLimits{}, TenantLimits{})
	mk := func(hdr, val string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/predictions", nil)
		if hdr != "" {
			r.Header.Set(hdr, val)
		}
		return r
	}
	if got, ok := tn.resolve(mk("", "")); !ok || got != AnonTenant {
		t.Fatalf("keyless request resolved to %q/%v", got, ok)
	}
	if got, ok := tn.resolve(mk("X-API-Key", "sekrit")); !ok || got != "alice" {
		t.Fatalf("X-API-Key resolved to %q/%v", got, ok)
	}
	if got, ok := tn.resolve(mk("Authorization", "Bearer sekrit")); !ok || got != "alice" {
		t.Fatalf("Bearer resolved to %q/%v", got, ok)
	}
	if _, ok := tn.resolve(mk("X-API-Key", "wrong")); ok {
		t.Fatal("unknown key resolved instead of failing")
	}
}

// TestJitterBounds pins the Retry-After jitter window: 0.75x..1.25x the
// hint, never below one second.
func TestJitterBounds(t *testing.T) {
	tn := newTenants(nil, TenantLimits{}, TenantLimits{})
	for _, r := range []float64{0, 0.5, 0.999999} {
		tn.rng = func() float64 { return r }
		if got := tn.jitterSecs(8 * time.Second); got < 6 || got > 10 {
			t.Fatalf("jitter(8s) with rng=%v = %d, want within [6,10]", r, got)
		}
		if got := tn.jitterSecs(0); got < 1 {
			t.Fatalf("jitter(0) = %d, want >= 1", got)
		}
	}
}

// ---- priority queue unit tests --------------------------------------------

func testJob(id string) *job { return &job{id: id} }

// TestQueueOrdering: strict priority order out, FIFO within a level.
func TestQueueOrdering(t *testing.T) {
	q := newJobQueue(8)
	q.push(testJob("l1"), PrioLow)
	q.push(testJob("n1"), PrioNormal)
	q.push(testJob("h1"), PrioHigh)
	q.push(testJob("n2"), PrioNormal)
	q.push(testJob("h2"), PrioHigh)
	want := []string{"h1", "h2", "n1", "n2", "l1"}
	for _, w := range want {
		j, ok := q.pop()
		if !ok || j.id != w {
			t.Fatalf("pop = %v/%v, want %s", j, ok, w)
		}
	}
}

// TestQueuePromote moves a queued job up; running jobs are not found.
func TestQueuePromote(t *testing.T) {
	q := newJobQueue(8)
	l1, l2 := testJob("l1"), testJob("l2")
	q.push(l1, PrioLow)
	q.push(l2, PrioLow)
	if !q.promote(l2, PrioHigh) {
		t.Fatal("promote did not find the queued job")
	}
	if j, _ := q.pop(); j.id != "l2" {
		t.Fatalf("promoted job not first, got %s", j.id)
	}
	if q.promote(l2, PrioHigh) {
		t.Fatal("promote found a job already popped (running)")
	}
}

// TestQueueFullAndClose: saturation refuses, close wakes pops, drain
// returns leftovers.
func TestQueueFullAndClose(t *testing.T) {
	q := newJobQueue(2)
	if !q.push(testJob("a"), PrioNormal) || !q.push(testJob("b"), PrioLow) {
		t.Fatal("pushes within capacity refused")
	}
	if q.push(testJob("c"), PrioHigh) {
		t.Fatal("push beyond capacity admitted (priority must not bypass the bound)")
	}
	if d := q.depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	// Closing wins over queued work: a draining server must stop
	// starting jobs, so pop reports ok=false even with depth 2.
	q.close()
	if _, ok := q.pop(); ok {
		t.Error("pop on a closed queue returned a job")
	}
	if got := len(q.drain()); got != 2 {
		t.Fatalf("drain returned %d jobs, want 2", got)
	}
	if q.push(testJob("d"), PrioNormal) {
		t.Fatal("push after close admitted")
	}

	// A pop blocked on an empty queue is woken by close.
	q2 := newJobQueue(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := q2.pop(); ok {
			t.Error("blocked pop returned a job after close")
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the pop block (best effort)
	q2.close()
	<-done
}

// ---- HTTP admission integration (run under -race in CI) -------------------

// TestRateLimit429 exhausts the anonymous burst and checks the shed
// answer: 429, Retry-After, the per-tenant counter — while a keyed
// tenant sails through untouched.
func TestRateLimit429(t *testing.T) {
	srv, hs := newHardenedServer(t, Config{
		Trials: 10, Seed: 42, Workers: 1, Queue: 8,
		APIKeys:    map[string]string{"sekrit": "alice"},
		AnonLimits: TenantLimits{Rate: 0.0001, Burst: 2},
	})

	bodies := []string{
		`{"app":"PENNANT","small":4,"large":8}`,
		`{"app":"PENNANT","small":2,"large":4}`,
		`{"app":"PENNANT","small":2,"large":8}`,
	}
	for i, b := range bodies[:2] {
		code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions", b, nil)
		if code != http.StatusAccepted {
			t.Fatalf("burst request %d returned %d: %v", i, code, v)
		}
	}
	code, hdr, v := postJSONHeader(t, hs.URL+"/v1/predictions", bodies[2], nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request returned %d (%v), want 429", code, v)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want positive seconds", hdr.Get("Retry-After"))
	}
	if msg, _ := v["error"].(string); !strings.Contains(msg, "rate") {
		t.Fatalf("429 error %q does not mention the rate limit", msg)
	}
	if got := srv.metrics.tenant(AnonTenant).ratelimited.Load(); got != 1 {
		t.Fatalf("anon ratelimited counter = %d, want 1", got)
	}

	// The keyed tenant has its own (unlimited) bucket.
	code, _, v = postJSONHeader(t, hs.URL+"/v1/predictions", bodies[2],
		map[string]string{"X-API-Key": "sekrit"})
	if code != http.StatusAccepted {
		t.Fatalf("keyed request returned %d (%v), want 202", code, v)
	}

	// An unknown key fails loudly instead of demoting to anonymous.
	code, _, _ = postJSONHeader(t, hs.URL+"/v1/predictions", bodies[2],
		map[string]string{"X-API-Key": "wrong"})
	if code != http.StatusUnauthorized {
		t.Fatalf("unknown key returned %d, want 401", code)
	}
	if got := srv.metrics.authFailures.Load(); got != 1 {
		t.Fatalf("auth failure counter = %d, want 1", got)
	}
}

// TestInflightQuota429 pins a tenant at MaxInflight 1: the second
// submission is shed with 429 while the first still occupies the slot,
// and a keyed tenant is unaffected (quota isolation).
func TestInflightQuota429(t *testing.T) {
	srv, hs := newHardenedServer(t, Config{
		Trials: 100, Seed: 42, Workers: 1, Queue: 8,
		APIKeys:    map[string]string{"sekrit": "alice"},
		AnonLimits: TenantLimits{MaxInflight: 1},
	})

	code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":4,"large":8}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d: %v", code, v)
	}
	id := v["id"].(string)

	code, hdr, v := postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":2,"large":8}`, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit returned %d (%v), want 429", code, v)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	if got := srv.metrics.tenant(AnonTenant).shedQuota.Load(); got != 1 {
		t.Fatalf("anon shed-quota counter = %d, want 1", got)
	}

	// alice is not charged for anon's inflight job.
	code, _, v = postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":2,"large":4}`, map[string]string{"X-API-Key": "sekrit"})
	if code != http.StatusAccepted {
		t.Fatalf("keyed submit returned %d (%v), want 202", code, v)
	}

	// Once the first job finishes its slot is released and the tenant
	// can submit again.
	pollDone(t, hs.URL, id)
	deadline := time.Now().Add(time.Minute)
	for {
		code, _, v = postJSONHeader(t, hs.URL+"/v1/predictions",
			`{"app":"PENNANT","small":2,"large":8}`, nil)
		if code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota slot never released: still %d (%v)", code, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPriorityPreemptsQueued submits (behind a blocker) two low jobs and
// one high job, and asserts the high job started first — queued work is
// preempted by priority, running work is untouched.
func TestPriorityPreemptsQueued(t *testing.T) {
	srv, hs := newHardenedServer(t, Config{Trials: 50, Seed: 42, Workers: 1, Queue: 8})

	submit := func(body string) string {
		code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions", body, nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s returned %d: %v", body, code, v)
		}
		return v["id"].(string)
	}
	blocker := submit(`{"app":"PENNANT","small":4,"large":8}`)
	low1 := submit(`{"app":"PENNANT","small":2,"large":8,"priority":"low"}`)
	low2 := submit(`{"app":"PENNANT","small":2,"large":4,"priority":"low"}`)
	high := submit(`{"app":"CG","small":4,"large":8,"priority":"high"}`)

	for _, id := range []string{blocker, low1, low2, high} {
		pollDone(t, hs.URL, id)
	}
	srv.mu.Lock()
	hStart := srv.jobs[high].startedAt()
	l1Start := srv.jobs[low1].startedAt()
	l2Start := srv.jobs[low2].startedAt()
	srv.mu.Unlock()
	if !hStart.Before(l1Start) || !hStart.Before(l2Start) {
		t.Fatalf("high-priority job started %v, after low jobs (%v, %v)",
			hStart, l1Start, l2Start)
	}

	// The response carries the effective priority; default submissions
	// stay unannotated (API compatibility).
	_, v := getJSON(t, hs.URL+"/v1/predictions/"+high)
	if v["priority"] != "high" {
		t.Fatalf("high job view priority = %v", v["priority"])
	}
	if _, present := getJSONField(t, hs.URL+"/v1/predictions/"+blocker, "priority"); present {
		t.Fatal("default-priority job grew a priority field")
	}
}

// getJSONField fetches url and reports whether the top-level field is
// present (and its value).
func getJSONField(t *testing.T, url, field string) (any, bool) {
	t.Helper()
	_, v := getJSON(t, url)
	val, ok := v[field]
	return val, ok
}

// TestJoinPromotesQueued: a high-priority duplicate of a queued low
// job joins it (content addressing) and promotes it past other waiters.
func TestJoinPromotesQueued(t *testing.T) {
	srv, hs := newHardenedServer(t, Config{Trials: 50, Seed: 42, Workers: 1, Queue: 8})

	submit := func(body string, wantCode int) string {
		code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions", body, nil)
		if code != wantCode {
			t.Fatalf("submit %s returned %d (%v), want %d", body, code, v, wantCode)
		}
		return v["id"].(string)
	}
	blocker := submit(`{"app":"PENNANT","small":4,"large":8}`, http.StatusAccepted)
	low1 := submit(`{"app":"PENNANT","small":2,"large":8,"priority":"low"}`, http.StatusAccepted)
	low2 := submit(`{"app":"PENNANT","small":2,"large":4,"priority":"low"}`, http.StatusAccepted)
	// Duplicate of low2 at high priority: joins, does not double-create.
	joined := submit(`{"app":"PENNANT","small":2,"large":4,"priority":"high"}`, http.StatusOK)
	if joined != low2 {
		t.Fatalf("duplicate created a new job %s != %s", joined, low2)
	}
	if got := srv.metrics.submitted.Load(); got != 3 {
		t.Fatalf("submitted = %d, want 3 (join must not re-enqueue)", got)
	}

	for _, id := range []string{blocker, low1, low2} {
		pollDone(t, hs.URL, id)
	}
	srv.mu.Lock()
	l1Start := srv.jobs[low1].startedAt()
	l2Start := srv.jobs[low2].startedAt()
	srv.mu.Unlock()
	if !l2Start.Before(l1Start) {
		t.Fatalf("promoted job started %v, after unpromoted low job %v", l2Start, l1Start)
	}
	_, v := getJSON(t, hs.URL+"/v1/predictions/"+low2)
	if v["priority"] != "high" {
		t.Fatalf("promoted job view priority = %v, want high", v["priority"])
	}
}

// TestDrainSheds503 verifies the drain contract: while Close waits for
// in-flight work, new submissions get 503 (try another instance) — not
// the 429 used for per-tenant overload — with a Retry-After hint.
func TestDrainSheds503(t *testing.T) {
	srv := New(Config{Trials: 200, Seed: 42, Workers: 1, Queue: 8})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":4,"large":8}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close(context.Background()) }()

	// Close flips the draining flag synchronously before waiting; poll
	// until a submission observes it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, hdr, v := postJSONHeader(t, hs.URL+"/v1/predictions",
			`{"app":"PENNANT","small":2,"large":8}`, nil)
		if code == http.StatusServiceUnavailable {
			if msg, _ := v["error"].(string); !strings.Contains(msg, "draining") {
				t.Fatalf("503 error %q does not say draining", msg)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("drain 503 without Retry-After")
			}
			break
		}
		if code == http.StatusTooManyRequests {
			t.Fatal("draining server shed with 429; drain must be 503")
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw a drain 503 (last code %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain errored: %v", err)
	}
	if got := srv.metrics.tenant(AnonTenant).shedDrain.Load(); got == 0 {
		t.Fatal("shed-drain counter never advanced")
	}
}

// TestTenantMetricFamilies drives one admitted job and one shed request,
// then asserts every per-tenant family appears in /metrics with the
// right tenant labels.
func TestTenantMetricFamilies(t *testing.T) {
	_, hs := newHardenedServer(t, Config{
		Trials: 10, Seed: 42, Workers: 1, Queue: 8,
		AnonLimits: TenantLimits{Rate: 0.0001, Burst: 1},
	})
	code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":4,"large":8}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	if code, _, _ = postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":2,"large":8}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second submit returned %d, want 429", code)
	}
	pollDone(t, hs.URL, id)

	// The quota slot is released moments after the job turns done (the
	// worker's deferred release); scrape until the gauge settles.
	var text string
	deadline := time.Now().Add(10 * time.Second)
	for {
		text = scrape(t, hs.URL)
		if strings.Contains(text, `resmod_tenant_inflight{tenant="anon"} 0`) ||
			time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`resmod_tenant_admitted_total{tenant="anon"} 1`,
		`resmod_tenant_ratelimited_total{tenant="anon"} 1`,
		`resmod_tenant_shed_total{tenant="anon",reason="quota"} 0`,
		`resmod_tenant_shed_total{tenant="anon",reason="queue"} 0`,
		`resmod_tenant_shed_total{tenant="anon",reason="drain"} 0`,
		`resmod_tenant_queued{tenant="anon"} 0`,
		`resmod_tenant_inflight{tenant="anon"} 0`,
		`resmod_queue_wait_seconds_count{tenant="anon"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", text)
	}
}

// TestBadPriority is the 400 path for the new field.
func TestBadPriority(t *testing.T) {
	_, hs := newHardenedServer(t, Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4})
	code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions",
		`{"app":"PENNANT","small":4,"large":8,"priority":"urgent"}`, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad priority returned %d (%v), want 400", code, v)
	}
}

// TestOverloadShedsNeverErrors drives a quota-constrained server with
// concurrent mixed traffic from three tenants, the way a well-behaved
// client would: a shed POST is retried with the same body, which names
// the same job, after its Retry-After.  Overload must surface as 429 +
// Retry-After, never as a 5xx; every tenant must still get work in; and
// the server must drain cleanly afterwards.  The load is a fixed number
// of requests, not a duration.
func TestOverloadShedsNeverErrors(t *testing.T) {
	srv, hs := newHardenedServer(t, Config{
		Trials: 10, Seed: 42, Workers: 2, Queue: 8,
		APIKeys:      map[string]string{"key-a": "team-a", "key-b": "team-b"},
		AnonLimits:   TenantLimits{Rate: 20, Burst: 10},
		TenantLimits: TenantLimits{Rate: 20, MaxInflight: 4},
	})
	// Twenty distinct predictions: more than the queue and the running
	// jobs hold together, so the rate, quota and queue sheds all bite.
	var bodies []string
	for _, app := range []string{"PENNANT", "CG"} {
		for large := 2; large <= 16; large *= 2 {
			for small := 1; small < large; small *= 2 {
				bodies = append(bodies, fmt.Sprintf(`{"app":%q,"small":%d,"large":%d}`, app, small, large))
			}
		}
	}
	keys := []string{"", "key-a", "key-b"} // anonymous, then the two tenants
	const clients, perClient, retries = 6, 40, 2

	var shed atomic.Int64
	var admitted [3]atomic.Int64
	// send issues one request and checks its answer: 2xx, or 429 with a
	// positive integer Retry-After — anything else is a server bug here.
	send := func(method, path, key, body string) (int, http.Header, []byte) {
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil, nil
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		switch code := resp.StatusCode; {
		case code == http.StatusTooManyRequests:
			shed.Add(1)
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Errorf("%s %s: 429 with Retry-After %q, want positive seconds",
					method, path, resp.Header.Get("Retry-After"))
			}
		case code/100 != 2:
			t.Errorf("%s %s answered %d under load: %s", method, path, code, b)
		}
		return resp.StatusCode, resp.Header, b
	}
	// post submits one prediction, retrying a shed answer with the same
	// body, and returns the job id once admitted.
	post := func(tenant int, body string) string {
		for attempt := 0; ; attempt++ {
			code, hdr, b := send(http.MethodPost, "/v1/predictions", keys[tenant], body)
			if code/100 == 2 {
				admitted[tenant].Add(1)
				var v struct{ ID string }
				if err := json.Unmarshal(b, &v); err != nil || v.ID == "" {
					t.Errorf("admitted POST without a job id: %s", b)
				}
				return v.ID
			}
			if code != http.StatusTooManyRequests || attempt == retries {
				return ""
			}
			ra, _ := strconv.Atoi(hdr.Get("Retry-After"))
			time.Sleep(min(time.Duration(ra)*time.Second, 5*time.Millisecond))
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := c % len(keys)
			rng := rand.New(rand.NewSource(int64(c)))
			var known []string // this client's admitted jobs
			for i := 0; i < perClient; i++ {
				// POST 60, GET of a known job 25, /healthz 10, /metrics 5;
				// a GET before anything was admitted submits instead.
				switch n := rng.Intn(100); {
				case n < 60 || n < 85 && len(known) == 0:
					if id := post(tenant, bodies[rng.Intn(len(bodies))]); id != "" {
						known = append(known, id)
					}
				case n < 85:
					send(http.MethodGet, "/v1/predictions/"+known[rng.Intn(len(known))], keys[tenant], "")
				case n < 95:
					send(http.MethodGet, "/healthz", keys[tenant], "")
				default:
					send(http.MethodGet, "/metrics", keys[tenant], "")
				}
			}
		}(c)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Error("no request was shed: the limits never bit")
	}
	for i, tenant := range []string{AnonTenant, "team-a", "team-b"} {
		if admitted[i].Load() == 0 {
			t.Errorf("tenant %s got no POST admitted", tenant)
		}
		tm := srv.metrics.tenant(tenant)
		t.Logf("%s: %d admitted POSTs, shed %d rate / %d quota / %d queue", tenant,
			admitted[i].Load(), tm.ratelimited.Load(), tm.shedQuota.Load(), tm.shedQueue.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("drain after the load: %v", err)
	}
}

// ---- per-tenant fair scheduling within a level ----------------------------

func tenantJob(id, tenant string) *job { return &job{id: id, tenant: tenant} }

// TestQueueTenantFairness: within one priority level tenants round-robin,
// so a tenant's burst cannot monopolize the level; each tenant's own jobs
// still pop in submission order.
func TestQueueTenantFairness(t *testing.T) {
	q := newJobQueue(16)
	// Tenant a bursts four jobs before b and c submit two each.
	q.push(tenantJob("a1", "a"), PrioNormal)
	q.push(tenantJob("a2", "a"), PrioNormal)
	q.push(tenantJob("a3", "a"), PrioNormal)
	q.push(tenantJob("a4", "a"), PrioNormal)
	q.push(tenantJob("b1", "b"), PrioNormal)
	q.push(tenantJob("c1", "c"), PrioNormal)
	q.push(tenantJob("b2", "b"), PrioNormal)
	q.push(tenantJob("c2", "c"), PrioNormal)
	want := []string{"a1", "b1", "c1", "a2", "b2", "c2", "a3", "a4"}
	for _, w := range want {
		j, ok := q.pop()
		if !ok || j.id != w {
			t.Fatalf("pop = %v/%v, want %s", j, ok, w)
		}
	}
}

// TestQueueTenantFairnessAcrossLevels: priority still dominates; the
// ring only interleaves within one level, and promotion re-ranks a job
// into the target level's ring.
func TestQueueTenantFairnessAcrossLevels(t *testing.T) {
	q := newJobQueue(16)
	q.push(tenantJob("bl1", "b"), PrioLow)
	q.push(tenantJob("an1", "a"), PrioNormal)
	q.push(tenantJob("an2", "a"), PrioNormal)
	bl2 := tenantJob("bl2", "b")
	q.push(bl2, PrioLow)
	q.push(tenantJob("ah1", "a"), PrioHigh)
	if !q.promote(bl2, PrioHigh) {
		t.Fatal("promote did not find the queued low job")
	}
	// High: a then b (ring order of arrival into the level); normal next;
	// the remaining low job last.
	want := []string{"ah1", "bl2", "an1", "an2", "bl1"}
	for _, w := range want {
		j, ok := q.pop()
		if !ok || j.id != w {
			t.Fatalf("pop = %v/%v, want %s", j, ok, w)
		}
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth = %d after draining pops, want 0", d)
	}
}
