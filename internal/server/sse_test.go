package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
	"resmod/internal/store"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the stream until the terminal "done" event, an error,
// or EOF, returning every named event in order (heartbeat comments are
// counted, not returned).
func readSSE(t *testing.T, body *bufio.Scanner) (events []sseEvent, heartbeats int) {
	t.Helper()
	var cur sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events, heartbeats
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ": "):
			heartbeats++
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events, heartbeats
}

// openSSE connects to the job's event stream and hands back the response
// plus a line scanner over it.
func openSSE(t *testing.T, ctx context.Context, base, id string) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/predictions/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events stream returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q", ct)
	}
	return resp, bufio.NewScanner(resp.Body)
}

// TestSSEMidJobStream is the acceptance criterion: a client connecting
// while the job runs receives at least two progress snapshots and then
// exactly one terminal done event carrying the finished job view.
func TestSSEMidJobStream(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st, 2, 16)

	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)

	resp, sc := openSSE(t, context.Background(), hs.URL, id)
	defer resp.Body.Close()
	events, _ := readSSE(t, sc)

	progress := 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before terminal", ev.name)
		}
		var pe map[string]any
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("progress event not JSON: %v\n%s", err, ev.data)
		}
		if k, _ := pe["kind"].(string); k != "campaign" && k != "prediction" {
			t.Fatalf("progress event with kind %q: %s", k, ev.data)
		}
		progress++
	}
	if progress < 2 {
		t.Fatalf("got %d progress snapshots, want at least 2", progress)
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("stream ended with %q, want done", last.name)
	}
	var view map[string]any
	if err := json.Unmarshal([]byte(last.data), &view); err != nil {
		t.Fatalf("done event not JSON: %v", err)
	}
	if view["status"] != StatusDone || view["id"] != id {
		t.Fatalf("terminal view = %v", view)
	}
	if _, ok := view["result"].(map[string]any); !ok {
		t.Fatalf("terminal view has no result: %v", view)
	}
}

// TestSSEAfterCompletion: connecting to a finished job replays the last
// snapshots and ends with the done event immediately — no hang.
func TestSSEAfterCompletion(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st, 2, 16)
	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)
	pollDone(t, hs.URL, id)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, sc := openSSE(t, ctx, hs.URL, id)
	defer resp.Body.Close()
	events, _ := readSSE(t, sc)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("finished job stream = %+v, want replay then done", events)
	}
}

// TestSSEClientDisconnect: dropping the stream mid-job must not cancel or
// fail the job — the subscription is observation-only, and other clients
// keep streaming.
func TestSSEClientDisconnect(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st, 2, 16)
	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	id := v["id"].(string)

	// First client connects and hangs up after the first event (or at
	// once, if nothing arrived yet).
	ctx, cancel := context.WithCancel(context.Background())
	resp, sc := openSSE(t, ctx, hs.URL, id)
	if sc.Scan() {
		_ = sc.Text()
	}
	cancel()
	resp.Body.Close()

	// The job still completes (pollDone fails the test on canceled/failed)
	// and a second client still gets the full stream end.
	pollDone(t, hs.URL, id)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	resp2, sc2 := openSSE(t, ctx2, hs.URL, id)
	defer resp2.Body.Close()
	events, _ := readSSE(t, sc2)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("second client stream = %+v, want done", events)
	}
}

// gateApp is a registered app whose runs wait until the gate in gateOpen
// is closed and then fail: a prediction of it holds a scheduler worker for
// as long as a test wants.
type gateApp struct{}

var (
	gateOnce sync.Once
	gateOpen atomic.Pointer[chan struct{}]
)

func (gateApp) Name() string               { return "GateTest" }
func (gateApp) Classes() []string          { return []string{"S"} }
func (gateApp) DefaultClass() string       { return "S" }
func (gateApp) MaxProcs(string) int        { return 2 }
func (gateApp) Verify(_, _ []float64) bool { return true }
func (gateApp) Run(*fpe.Ctx, *simmpi.Comm, string) (apps.RankOutput, error) {
	<-*gateOpen.Load()
	return apps.RankOutput{}, errors.New("gate app: no computation")
}

// TestSSEHeartbeat: an idle stream carries comment heartbeats so proxies
// keep the connection alive.  The watched job is queued behind a job that
// holds the only scheduler worker until the test has read a heartbeat, so
// no trial speed lets it finish first.
func TestSSEHeartbeat(t *testing.T) {
	gateOnce.Do(func() { apps.Register(gateApp{}) })
	gate := make(chan struct{})
	gateOpen.Store(&gate)
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	srv := New(Config{Trials: 10, Seed: 42, Workers: 1, Queue: 4,
		HeartbeatEvery: 5 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		release()
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})

	if code, v := postJSON(t, hs.URL+"/v1/predictions", `{"app":"GateTest","small":1,"large":2}`); code != http.StatusAccepted {
		t.Fatalf("gate submit returned %d: %v", code, v)
	}
	code, v := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, v)
	}
	resp, sc := openSSE(t, context.Background(), hs.URL, v["id"].(string))
	defer resp.Body.Close()
	for heartbeat := false; !heartbeat; {
		if !sc.Scan() {
			t.Fatal("the stream ended before a heartbeat comment")
		}
		heartbeat = strings.HasPrefix(sc.Text(), ": ")
	}
	release()
	if events, _ := readSSE(t, sc); len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("the stream ended without a done event: %v", events)
	}
}

// TestSSEUnknownJob: the events endpoint 404s like the job endpoint.
func TestSSEUnknownJob(t *testing.T) {
	_, hs := newTestServer(t, nil, 1, 4)
	resp, err := http.Get(hs.URL + "/v1/predictions/doesnotexist/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", resp.StatusCode)
	}
}

// TestStatusEndpoint: /v1/status reports per-state job counts and the
// scheduler occupancy document.
func TestStatusEndpoint(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st, 2, 16)

	code, v := getJSON(t, hs.URL+"/v1/status")
	if code != http.StatusOK || v["status"] != "ok" {
		t.Fatalf("/v1/status = %d %v", code, v)
	}
	if v["jobs_total"].(float64) != 0 {
		t.Fatalf("fresh server reports %v jobs", v["jobs_total"])
	}

	code, sub := postJSON(t, hs.URL+"/v1/predictions", predBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", code, sub)
	}
	pollDone(t, hs.URL, sub["id"].(string))

	_, v = getJSON(t, hs.URL+"/v1/status")
	jobs, _ := v["jobs"].(map[string]any)
	if jobs[StatusDone].(float64) != 1 {
		t.Fatalf("status jobs = %v, want one done", jobs)
	}
	sched, _ := v["scheduler"].(map[string]any)
	if sched == nil || sched["worker_budget_size"].(float64) <= 0 {
		t.Fatalf("status scheduler view = %v", sched)
	}
	if v["campaigns_tracked"].(float64) == 0 {
		t.Fatal("no campaigns tracked on the progress bus after a job")
	}
}
