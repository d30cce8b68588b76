package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/telemetry"
)

// TestPoisonChunk: one chunk fails on whichever worker it lands on (three
// real workers, each behind a front that answers 500 for that range).
// The first failure benches the worker, as any failure does; the second,
// on another worker, convicts the chunk instead — it waits for the local
// tail while that worker and the third keep the fleet working.
func TestPoisonChunk(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	pool := NewPool(PoolConfig{HeartbeatTimeout: 30 * time.Second})
	for i := 0; i < 3; i++ {
		w, err := NewWorker(WorkerConfig{Coordinator: "http://unused.invalid", Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		real := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			var req ShardRequest
			if json.Unmarshal(body, &req) == nil && req.Start == 0 {
				http.Error(rw, "poisoned range", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			real.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		pool.Register(fmt.Sprintf("pw%d", i), srv.URL)
	}

	var logs bytes.Buffer // the JSON handler serialises its writes
	ctx := telemetry.With(context.Background(),
		telemetry.New(slog.New(slog.NewJSONHandler(&logs, nil)), nil, nil))
	sum, handled, err := pool.Distribute(ctx, c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("run with a poison chunk diverged from local:\n got %s\nwant %s", got, want)
	}
	const chunks = 12 // 90 trials over 3 workers × shardsPerWorker, minShard a chunk
	st := pool.Stats()
	if st.ShardsLocal != 1 || st.ShardsCompleted != chunks-1 || st.ShardsRequeued != 2 {
		t.Errorf("stats = %+v, want 1 local, %d completed, 2 requeued", st, chunks-1)
	}
	if benched := strings.Count(logs.String(), `"benched":true`); benched != 1 {
		t.Errorf("%d workers benched, want exactly 1:\n%s", benched, logs.String())
	}
}

// gatedApp is PENNANT behind a gate: every run blocks until the current
// gate closes, which lets a test hold a golden computation in flight.
type gatedApp struct {
	apps.App
	gate atomic.Pointer[chan struct{}]
}

func (g *gatedApp) Name() string { return "GATED" }

func (g *gatedApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	<-*g.gate.Load()
	return g.App.Run(fc, comm, class, st)
}

// gated is registered once per test binary (-count reruns the tests, and
// a second registration panics).
var gated = func() *gatedApp {
	app, err := apps.Lookup("PENNANT")
	if err != nil {
		panic(err)
	}
	g := &gatedApp{App: app}
	apps.Register(g)
	return g
}()

// TestGoldenFlightSurvivesCanceledStarter: two shards of one campaign
// arrive together, so the second joins the golden computation the first
// started.  The coordinator then abandons the first dispatch.  The golden
// belongs to the worker, not to the request that happened to ask first:
// the second shard must still get its result.
func TestGoldenFlightSurvivesCanceledStarter(t *testing.T) {
	gate := make(chan struct{})
	gated.gate.Store(&gate)
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused.invalid", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	firstGone := make(chan struct{}) // the worker has seen the first request's cancellation
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			go func() { <-r.Context().Done(); close(firstGone) }()
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c := faultsim.Campaign{App: gated, Procs: 2, Trials: 4, Errors: 1, Region: faultsim.AnyRegion, Seed: 7}
	post := func(ctx context.Context, start, end int) (*ShardResponse, error) {
		body, err := json.Marshal(ShardRequest{Campaign: SpecOf(c), Start: start, End: end})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/shards", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("%s: %s", resp.Status, msg)
		}
		var sr ShardResponse
		return &sr, json.NewDecoder(resp.Body).Decode(&sr)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ctx1, abandon := context.WithCancel(context.Background())
	defer abandon()
	firstDone := make(chan error, 1)
	go func() { _, err := post(ctx1, 0, 2); firstDone <- err }()
	waitFor("the first shard to start the golden", func() bool { return w.goldenMisses.Load() == 1 })

	type reply struct {
		sr  *ShardResponse
		err error
	}
	secondDone := make(chan reply, 1)
	go func() { sr, err := post(context.Background(), 2, 4); secondDone <- reply{sr, err} }()
	waitFor("the second shard to join the flight", func() bool { return w.goldenHits.Load() == 1 })

	abandon()
	if err := <-firstDone; err == nil {
		t.Fatal("abandoned dispatch returned a result")
	}
	<-firstGone
	close(gate)

	got := <-secondDone
	if got.err != nil {
		t.Fatalf("joined shard failed: %v", got.err)
	}
	if got.sr.Result == nil || got.sr.Result.Checkpoint.Completed != 2 {
		t.Fatalf("joined shard answered %+v, want 2 completed trials", got.sr)
	}
	if misses := w.goldenMisses.Load(); misses != 1 {
		t.Errorf("golden computed %d times, want once", misses)
	}
}

// TestRegisterBackoffJitter: a re-register sleep is drawn from
// [backoff/2, backoff] and is not the same draw every time, so workers
// turned away together do not come back together.
func TestRegisterBackoffJitter(t *testing.T) {
	const backoff = 4 * time.Second
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := jittered(backoff)
		if d < backoff/2 || d > backoff {
			t.Fatalf("jittered(%v) = %v, outside [%v, %v]", backoff, d, backoff/2, backoff)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws all slept %v", backoff)
	}
}
