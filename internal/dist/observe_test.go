package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// obsTelemetry builds a tracing + progress-bus bundle like the server
// attaches to a distributed job.
func obsTelemetry() (*telemetry.Telemetry, *telemetry.Tracer, *telemetry.Progress) {
	tr := telemetry.NewTracer()
	prog := telemetry.NewProgress()
	return telemetry.New(nil, tr, nil).WithProgress(prog), tr, prog
}

// attrOf returns the named attribute of a span view, or nil.
func attrOf(v telemetry.SpanView, key string) any {
	for _, a := range v.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// assertNoOrphans fails if any span's parent is neither 0 nor a span in
// the same trace — the invariant trace grafting must preserve under
// every loss scenario.
func assertNoOrphans(t *testing.T, views []telemetry.SpanView) {
	t.Helper()
	ids := make(map[uint64]bool, len(views))
	for _, v := range views {
		ids[v.ID] = true
	}
	for _, v := range views {
		if v.Parent != 0 && !ids[v.Parent] {
			t.Errorf("span %q (id %d) orphaned: parent %d not in trace", v.Name, v.ID, v.Parent)
		}
	}
}

// campaignEvents drains the subscription and returns the campaign-kind
// events for the given identity, in arrival order.
func campaignEvents(sub *telemetry.ProgressSub, identity string) []telemetry.ProgressEvent {
	var out []telemetry.ProgressEvent
	for {
		select {
		case ev := <-sub.Events():
			if ev.Kind == telemetry.KindCampaign && ev.Key == identity {
				out = append(out, ev)
			}
		default:
			return out
		}
	}
}

// TestDistributedTraceAndProgress is the observability acceptance core:
// a 2-worker campaign with tracing and a progress bus attached produces
// (a) a bit-identical result, (b) a job trace whose dispatch spans hang
// under the distribute span and whose grafted worker shard spans carry
// both workers' names with no orphaned parents, and (c) a monotonically
// advancing campaign progress stream that terminates in state done.
func TestDistributedTraceAndProgress(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	cl := startCluster(t, 2, PoolConfig{
		HeartbeatTimeout: time.Second,
		ShardsPerWorker:  3,
		MinShard:         4,
	})
	tel, tr, prog := obsTelemetry()
	sub := prog.Subscribe(4096)
	defer sub.Close()
	ctx := telemetry.WithRequestID(telemetry.With(context.Background(), tel), "req-obs")

	sum, handled, err := cl.pool.Distribute(ctx, c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("traced+observed run diverged from local:\n got %s\nwant %s", got, want)
	}

	// ---- trace shape ----
	views := tr.Spans()
	assertNoOrphans(t, views)
	var distribute telemetry.SpanView
	for _, v := range views {
		if v.Name == "distribute" {
			distribute = v
		}
	}
	if distribute.ID == 0 {
		t.Fatal("no distribute span recorded")
	}
	dispatchIDs := make(map[uint64]string) // span id -> worker name
	for _, v := range views {
		if v.Name != "dispatch" {
			continue
		}
		if v.Parent != distribute.ID {
			t.Errorf("dispatch span %d parented to %d, want distribute %d", v.ID, v.Parent, distribute.ID)
		}
		name, _ := attrOf(v, "worker_name").(string)
		if name == "" {
			t.Errorf("dispatch span %d carries no worker_name", v.ID)
		}
		dispatchIDs[v.ID] = name
	}
	if len(dispatchIDs) == 0 {
		t.Fatal("no dispatch spans recorded")
	}
	// Grafted worker shard spans: roots re-parented under dispatch spans,
	// tagged with the executing worker, in the job's lane.
	shardWorkers := make(map[string]int)
	for _, v := range views {
		if v.Name != "shard" {
			continue
		}
		wantName, ok := dispatchIDs[v.Parent]
		if !ok {
			t.Errorf("shard span %d not parented under a dispatch span (parent %d)", v.ID, v.Parent)
			continue
		}
		gotName, _ := attrOf(v, "worker_name").(string)
		if gotName != wantName {
			t.Errorf("shard span %d tagged %q, dispatch says %q", v.ID, gotName, wantName)
		}
		if v.TID != distribute.TID {
			t.Errorf("shard span %d in lane %d, want job lane %d", v.ID, v.TID, distribute.TID)
		}
		shardWorkers[gotName]++
	}
	for _, name := range []string{"tw0", "tw1"} {
		if shardWorkers[name] == 0 {
			t.Errorf("no grafted shard spans from worker %s (got %v)", name, shardWorkers)
		}
	}

	// ---- progress stream ----
	evs := campaignEvents(sub, identity)
	if len(evs) < 2 {
		t.Fatalf("want a progress stream, got %d events", len(evs))
	}
	var prev uint64
	for i, ev := range evs {
		if ev.Done < prev {
			t.Fatalf("progress event %d regressed: Done %d after %d", i, ev.Done, prev)
		}
		if ev.Total != uint64(c.Trials) {
			t.Fatalf("progress event %d Total = %d, want %d", i, ev.Total, c.Trials)
		}
		prev = ev.Done
	}
	last := evs[len(evs)-1]
	if last.State != telemetry.StateDone || last.Done != uint64(c.Trials) {
		t.Fatalf("terminal event = {state %s, done %d}, want {done, %d}", last.State, last.Done, c.Trials)
	}
	// At least one mid-flight event advanced before completion — the
	// stream is live, not a single final report.
	if evs[0].Done == last.Done {
		t.Error("progress stream never showed an intermediate state")
	}
	if st := cl.pool.Stats(); st.ProgressReports == 0 {
		t.Errorf("coordinator accepted no worker progress reports (stats %+v)", st)
	}
}

// TestDeadWorkerLeavesNoOrphanSpans: dispatches to a dead-on-arrival
// worker fail and requeue; the trace must contain no spans attributed to
// the corpse and no dangling parent references.
func TestDeadWorkerLeavesNoOrphanSpans(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	cl := startCluster(t, 1, PoolConfig{
		HeartbeatTimeout: 30 * time.Second, // keep the corpse "alive": dispatches must hit it
		ShardsPerWorker:  3,
		MinShard:         4,
	})
	corpse := httptest.NewServer(nil)
	corpseURL := corpse.URL
	corpse.Close()
	cl.pool.Register("corpse", corpseURL)

	tel, tr, _ := obsTelemetry()
	ctx := telemetry.With(context.Background(), tel)
	sum, handled, err := cl.pool.Distribute(ctx, c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("run diverged from local:\n got %s\nwant %s", got, want)
	}
	if st := cl.pool.Stats(); st.ShardsRequeued == 0 {
		t.Fatalf("corpse absorbed no dispatches (stats %+v)", st)
	}

	views := tr.Spans()
	assertNoOrphans(t, views)
	for _, v := range views {
		if v.Name == "shard" {
			if name, _ := attrOf(v, "worker_name").(string); name == "corpse" {
				t.Errorf("dead worker left a grafted shard span: %+v", v)
			}
		}
	}
}

// TestLocalFallbackObservability: with only phantom workers the
// coordinator finishes everything locally — the progress stream still
// advances monotonically to done, and the trace contains local shard
// spans but no grafted (worker-tagged) ones.
func TestLocalFallbackObservability(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	pool := NewPool(PoolConfig{
		HeartbeatTimeout: 30 * time.Second,
		ShardsPerWorker:  4,
		MinShard:         4,
	})
	srv := httptest.NewServer(nil)
	url := srv.URL
	srv.Close()
	pool.Register("ghost", url)

	tel, tr, prog := obsTelemetry()
	sub := prog.Subscribe(4096)
	defer sub.Close()
	ctx := telemetry.With(context.Background(), tel)
	sum, handled, err := pool.Distribute(ctx, c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("local-fallback run diverged:\n got %s\nwant %s", got, want)
	}

	views := tr.Spans()
	assertNoOrphans(t, views)
	for _, v := range views {
		if v.Name == "shard" {
			if name := attrOf(v, "worker_name"); name != nil {
				t.Errorf("local shard span tagged with worker %v", name)
			}
		}
	}

	evs := campaignEvents(sub, identity)
	if len(evs) == 0 {
		t.Fatal("no progress events from the local fallback")
	}
	var prev uint64
	for i, ev := range evs {
		if ev.Done < prev {
			t.Fatalf("event %d regressed: Done %d after %d", i, ev.Done, prev)
		}
		prev = ev.Done
	}
	last := evs[len(evs)-1]
	if last.State != telemetry.StateDone || last.Done != uint64(c.Trials) {
		t.Fatalf("terminal event = {state %s, done %d}, want {done, %d}", last.State, last.Done, c.Trials)
	}
}

// TestWorkerEchoesRequestID: the dispatch request's X-Request-ID comes
// back on the shard response — the cross-node log-correlation contract.
func TestWorkerEchoesRequestID(t *testing.T) {
	c, _ := testCampaign(t)
	cl := startCluster(t, 1, PoolConfig{HeartbeatTimeout: time.Second})
	workerURL := cl.pool.Workers()[0].URL

	body, err := json.Marshal(ShardRequest{Campaign: SpecOf(c.Normalized()), Start: 0, End: 4})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, workerURL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "req-echo-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard request failed: %s", resp.Status)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "req-echo-1" {
		t.Fatalf("request id echo = %q, want req-echo-1", got)
	}
	var sr ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Result == nil || sr.Result.Checkpoint.Completed != 4 {
		t.Fatalf("shard response %+v, want 4 completed trials", sr.Result)
	}
	// No Trace flag in the request: no spans in the response.
	if len(sr.Trace) != 0 {
		t.Fatalf("untraced shard returned %d spans", len(sr.Trace))
	}
}

// TestHeartbeatStatsDeriveRate: the coordinator derives trials/sec from
// consecutive stats-bearing heartbeats and surfaces the latest snapshot
// in the workers view.
func TestHeartbeatStatsDeriveRate(t *testing.T) {
	pool := NewPool(PoolConfig{HeartbeatTimeout: time.Minute})
	id := pool.Register("w", "http://127.0.0.1:1")

	if !pool.Heartbeat(id, &WorkerStats{TrialsDone: 100}) {
		t.Fatal("heartbeat rejected")
	}
	ws := pool.Workers()
	if ws[0].Stats == nil || ws[0].Stats.TrialsDone != 100 {
		t.Fatalf("stats snapshot = %+v, want TrialsDone 100", ws[0].Stats)
	}
	if ws[0].TrialsPerSec != 0 {
		t.Fatalf("rate after one heartbeat = %g, want 0", ws[0].TrialsPerSec)
	}
	time.Sleep(50 * time.Millisecond)
	if !pool.Heartbeat(id, &WorkerStats{TrialsDone: 600}) {
		t.Fatal("heartbeat rejected")
	}
	rate := pool.Workers()[0].TrialsPerSec
	if rate <= 0 {
		t.Fatalf("rate after two heartbeats = %g, want > 0", rate)
	}
	// 500 trials over >=50ms: the rate cannot exceed 10000/s.
	if rate > 500/0.05 {
		t.Fatalf("rate %g implausible for 500 trials over >=50ms", rate)
	}
	// A stats-free heartbeat refreshes liveness without clobbering stats.
	if !pool.Heartbeat(id, nil) {
		t.Fatal("stats-free heartbeat rejected")
	}
	if ws := pool.Workers(); ws[0].Stats == nil || ws[0].Stats.TrialsDone != 600 {
		t.Fatalf("stats clobbered by nil heartbeat: %+v", ws[0].Stats)
	}
}

// TestClusterEndpoint: /v1/cluster reports pool counters and per-worker
// detail through the coordinator's bare handler.
func TestClusterEndpoint(t *testing.T) {
	pool := NewPool(PoolConfig{HeartbeatTimeout: time.Minute})
	id := pool.Register("w-alpha", "http://127.0.0.1:1")
	pool.Heartbeat(id, &WorkerStats{TrialsDone: 42, ShardsDone: 3})
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Coordinator  bool         `json:"coordinator"`
		WorkersKnown int          `json:"workers_known"`
		WorkersAlive int          `json:"workers_alive"`
		Workers      []WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Coordinator || doc.WorkersKnown != 1 || doc.WorkersAlive != 1 {
		t.Fatalf("cluster view = %+v", doc)
	}
	if len(doc.Workers) != 1 || doc.Workers[0].Name != "w-alpha" ||
		doc.Workers[0].Stats == nil || doc.Workers[0].Stats.TrialsDone != 42 {
		t.Fatalf("cluster workers = %+v", doc.Workers)
	}
}

// TestWorkerMetricsEndpoint: a worker's own /metrics is scrapeable,
// reflects executed shards, and carries the whole engine block — the
// same declaration the server exposes — whose outcome counters sum to
// resmod_campaign_trials_total.
func TestWorkerMetricsEndpoint(t *testing.T) {
	c, golden := testCampaign(t)
	cl := startCluster(t, 1, PoolConfig{HeartbeatTimeout: time.Second, ShardsPerWorker: 1})
	if _, handled, err := cl.pool.Distribute(context.Background(), c, golden); err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	resp, err := http.Get(cl.pool.Workers()[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"resmod_worker_shards_done_total 1",
		"resmod_worker_trials_done_total 90",
		"resmod_worker_golden_cache_misses_total 1",
		"resmod_worker_shards_inflight 0",
		"resmod_worker_uptime_seconds",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("worker /metrics missing %q:\n%s", want, out)
		}
	}
	var total, outcomes uint64
	for _, line := range strings.Split(out, "\n") {
		var v uint64
		if _, err := fmt.Sscanf(line, "resmod_campaign_trials_total %d", &v); err == nil {
			total = v
		}
		if rest, ok := strings.CutPrefix(line, "resmod_trial_total{"); ok {
			if _, err := fmt.Sscanf(rest[strings.IndexByte(rest, '}')+1:], "%d", &v); err == nil {
				outcomes += v
			}
		}
	}
	if total != 90 || outcomes != total || !strings.Contains(out, "resmod_trial_duration_seconds_count 90\n") {
		t.Errorf("resmod_campaign_trials_total = %d, outcome sum = %d, want both (and the trial histogram's count) 90:\n%s",
			total, outcomes, out)
	}
}

// TestFleetScrapeOneRoster: one /metrics pass reads the roster once, so
// every per-worker family reports the same snapshot; a pass of the
// retention sampler, which collects only some of the families, and every
// later scrape read it afresh.  Concurrent scrapes each stay consistent.
func TestFleetScrapeOneRoster(t *testing.T) {
	var calls atomic.Int64
	roster := func() []WorkerInfo {
		n := calls.Add(1)
		// Each call disagrees with the one before on every field.
		u := uint64(n)
		return []WorkerInfo{{Name: "w1", Alive: n%2 == 1, LastSeenMS: n * 1000,
			TrialsPerSec: float64(n), ShardsDone: u, ShardsFailed: u,
			Stats: &WorkerStats{TrialsDone: u, ShardsInflight: u, GoldenHits: u, GoldenMisses: u}}}
	}
	reg := telemetry.NewRegistry()
	registerWorkerFamilies(reg, roster)

	// scrape returns the roster call every sample of one pass came from,
	// or an error naming the sample that disagrees.
	scrape := func() (int64, error) {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			return 0, err
		}
		var vals []int64
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				return 0, err
			}
			if !strings.HasPrefix(line, "resmod_fleet_worker_up{") {
				vals = append(vals, v)
			} else if len(vals) == 0 {
				vals = append(vals, -v) // up: 1 for odd calls, 0 for even
			}
		}
		if len(vals) != 9 {
			return 0, fmt.Errorf("%d samples, want 9:\n%s", len(vals), buf.String())
		}
		n := vals[1]
		if vals[0] != -(n % 2) {
			return 0, fmt.Errorf("up disagrees with call %d:\n%s", n, buf.String())
		}
		for _, v := range vals[1:] {
			if v != n {
				return 0, fmt.Errorf("families read calls %d and %d:\n%s", n, v, buf.String())
			}
		}
		return n, nil
	}
	if n, err := scrape(); err != nil || n != 1 || calls.Load() != 1 {
		t.Fatalf("first scrape: call %d, %d roster reads, err %v; want call 1 and 1 read", n, calls.Load(), err)
	}
	smp := reg.Source(map[string]string{"resmod_fleet_worker_heartbeat_age_seconds": "age"})()
	if calls.Load() != 2 || smp.Gauges["age/w1"] != 2 {
		t.Fatalf("sampler pass: %d roster reads, age %v; want 2 and 2", calls.Load(), smp.Gauges["age/w1"])
	}
	if n, err := scrape(); err != nil || n != 3 || calls.Load() != 3 {
		t.Fatalf("second scrape: call %d, %d roster reads, err %v; want call 3 and 3 reads", n, calls.Load(), err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := scrape(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
