package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"

	_ "resmod/internal/apps/pennant"
)

// testCampaign is small enough for -race yet large enough to cut into
// many shards.
func testCampaign(t testing.TB) (faultsim.Campaign, *faultsim.Golden) {
	t.Helper()
	app, err := apps.Lookup("PENNANT")
	if err != nil {
		t.Fatal(err)
	}
	c := faultsim.Campaign{App: app, Procs: 4, Trials: 90, Errors: 1,
		Region: faultsim.AnyRegion, Seed: 20180707, Workers: 2}
	golden, err := faultsim.ComputeGolden(app, app.DefaultClass(), c.Procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, golden
}

// recordJSON renders the summary's stable record with wall time zeroed.
func recordJSON(t *testing.T, sum *faultsim.Summary, identity string) string {
	t.Helper()
	rec := sum.Record(identity)
	if rec == nil {
		t.Fatal("nil SummaryRecord")
	}
	rec.ElapsedNS = 0
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cluster is a coordinator pool with n live in-process workers.
type cluster struct {
	pool    *Pool
	coord   *httptest.Server
	cancels []context.CancelFunc
}

// startCluster boots a pool (behind its Handler, like a real
// coordinator) and n workers that register with it, waiting until all
// heartbeats landed.
func startCluster(t *testing.T, n int, cfg PoolConfig) *cluster {
	t.Helper()
	cl := &cluster{pool: NewPool(cfg)}
	cl.coord = httptest.NewServer(cl.pool.Handler())
	t.Cleanup(cl.coord.Close)
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator:    cl.coord.URL,
			Listen:         "127.0.0.1:0",
			Name:           fmt.Sprintf("tw%d", i),
			Workers:        2,
			HeartbeatEvery: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each node carries its own recorder, as `resmod worker` does.
		ctx, cancel := context.WithCancel(telemetry.With(context.Background(),
			telemetry.New(nil, nil, telemetry.NewRecorder())))
		cl.cancels = append(cl.cancels, cancel)
		t.Cleanup(cancel)
		go func() { _ = w.Run(ctx) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for cl.pool.Stats().WorkersAlive < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered in time", cl.pool.Stats().WorkersAlive, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cl
}

// TestSpecRoundTrip: the wire form survives JSON and reconstructs a
// campaign with the same cid:v3 identity.
func TestSpecRoundTrip(t *testing.T) {
	c, _ := testCampaign(t)
	spec := SpecOf(c)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	rc, err := back.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	want := c.Normalized().Identity()
	if got := rc.Normalized().Identity(); got != want {
		t.Fatalf("round-tripped identity %q, want %q", got, want)
	}
}

// TestSpecUnknownApp: a spec naming an unregistered app fails cleanly.
func TestSpecUnknownApp(t *testing.T) {
	if _, err := (CampaignSpec{App: "NOPE", Procs: 4, Trials: 10}).Campaign(); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestShardRanges pins the chunking: full cover, in order, respecting
// the minimum chunk size.
func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		trials, parts, minShard int
		want                    int // expected chunk count
	}{
		{90, 12, 8, 12},
		{90, 200, 8, 12}, // min shard caps the split: ceil(90/8)
		{90, 1, 8, 1},
		{5, 12, 8, 1}, // tiny campaign: one chunk
	} {
		got := shardRanges(tc.trials, tc.parts, tc.minShard)
		if len(got) != tc.want {
			t.Errorf("shardRanges(%d,%d,%d) = %d chunks %v, want %d",
				tc.trials, tc.parts, tc.minShard, len(got), got, tc.want)
		}
		next := 0
		for _, ck := range got {
			r := ck.r
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("shardRanges(%d,%d,%d) = %v: not a contiguous cover",
					tc.trials, tc.parts, tc.minShard, got)
			}
			next = r[1]
		}
		if next != tc.trials {
			t.Fatalf("shardRanges(%d,%d,%d) = %v: covers %d trials",
				tc.trials, tc.parts, tc.minShard, got, next)
		}
	}
}

// TestDistributeNoWorkers: an empty pool declines (handled=false) so the
// scheduler falls back to plain local execution.
func TestDistributeNoWorkers(t *testing.T) {
	c, golden := testCampaign(t)
	sum, handled, err := NewPool(PoolConfig{}).Distribute(context.Background(), c, golden)
	if handled || err != nil || sum != nil {
		t.Fatalf("empty pool returned (%v, %v, %v), want (nil, false, nil)", sum, handled, err)
	}
}

// TestDistributedBitIdentical is the acceptance core: the same campaign
// run locally, on a 1-worker pool, and on a 3-worker pool produces
// byte-identical SummaryRecords.
func TestDistributedBitIdentical(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	for _, n := range []int{1, 3} {
		cl := startCluster(t, n, PoolConfig{HeartbeatTimeout: time.Second})
		sum, handled, err := cl.pool.Distribute(context.Background(), c, golden)
		if err != nil || !handled {
			t.Fatalf("%d workers: Distribute = (%v, %v)", n, handled, err)
		}
		if got := recordJSON(t, sum, identity); got != want {
			t.Errorf("%d workers diverged from local run:\n got %s\nwant %s", n, got, want)
		}
		st := cl.pool.Stats()
		if st.ShardsCompleted == 0 {
			t.Errorf("%d workers: no shards completed remotely (stats %+v)", n, st)
		}
	}
}

// TestDistributedReshardOnLoss: a worker that is dead on arrival (its
// listener is closed right after registration) forces every chunk sent
// to it to requeue onto the survivors — and the merged record is still
// byte-identical to the local run.  A second phase cancels a live
// worker mid-campaign for the graceful-loss path.
func TestDistributedReshardOnLoss(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	// A long timeout keeps the corpse "alive": dispatches must hit it.
	cl := startCluster(t, 2, PoolConfig{HeartbeatTimeout: 30 * time.Second})
	// A phantom worker: registered, heartbeat-fresh, but its socket is
	// already closed — every dispatch to it fails at connect time.
	corpse := httptest.NewServer(nil)
	corpseURL := corpse.URL
	corpse.Close()
	cl.pool.Register("corpse", corpseURL)

	sum, handled, err := cl.pool.Distribute(context.Background(), c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("re-sharded run diverged from local:\n got %s\nwant %s", got, want)
	}
	st := cl.pool.Stats()
	if st.ShardsRequeued == 0 {
		t.Errorf("no shards were requeued despite a dead worker (stats %+v)", st)
	}
}

// TestDistributedAllWorkersDie: when every worker dies mid-campaign the
// coordinator finishes the remaining ranges locally, still bit-identical.
func TestDistributedAllWorkersDie(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	pool := NewPool(PoolConfig{HeartbeatTimeout: 30 * time.Second})
	// Two phantoms: alive by heartbeat, dead on the wire.  Every chunk
	// requeues until the dispatchers give up, then the local tail runs
	// the whole campaign.
	for _, name := range []string{"ghost1", "ghost2"} {
		srv := httptest.NewServer(nil)
		url := srv.URL
		srv.Close()
		pool.Register(name, url)
	}
	sum, handled, err := pool.Distribute(context.Background(), c, golden)
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("locally-completed run diverged:\n got %s\nwant %s", got, want)
	}
	st := pool.Stats()
	if st.ShardsLocal == 0 {
		t.Errorf("expected local completion shards (stats %+v)", st)
	}
	if st.ShardsCompleted != 0 {
		t.Errorf("phantom workers completed %d shards", st.ShardsCompleted)
	}
}

// TestWorkerKilledMidCampaign cancels one of three workers while the
// campaign is in flight; survivors absorb its chunks and the result is
// still byte-identical.
func TestWorkerKilledMidCampaign(t *testing.T) {
	c, golden := testCampaign(t)
	identity := c.Normalized().Identity()
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	cl := startCluster(t, 3, PoolConfig{HeartbeatTimeout: 500 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Kill worker 0 as soon as the campaign has visibly started.
		deadline := time.Now().Add(10 * time.Second)
		for cl.pool.Stats().ShardsDispatched == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cl.cancels[0]()
	}()
	sum, handled, err := cl.pool.Distribute(context.Background(), c, golden)
	<-done
	if err != nil || !handled {
		t.Fatalf("Distribute = (%v, %v)", handled, err)
	}
	if got := recordJSON(t, sum, identity); got != want {
		t.Errorf("post-kill run diverged from local:\n got %s\nwant %s", got, want)
	}
}

// TestHeartbeatExpiry: a worker that stops heartbeating drops out of the
// alive set but stays visible (alive=false) in the registry view.
func TestHeartbeatExpiry(t *testing.T) {
	pool := NewPool(PoolConfig{HeartbeatTimeout: 50 * time.Millisecond})
	id := pool.Register("w", "http://127.0.0.1:1")
	if !pool.Heartbeat(id) {
		t.Fatal("heartbeat for a registered worker rejected")
	}
	if got := pool.Stats().WorkersAlive; got != 1 {
		t.Fatalf("workers alive = %d, want 1", got)
	}
	time.Sleep(120 * time.Millisecond)
	if got := pool.Stats().WorkersAlive; got != 0 {
		t.Fatalf("workers alive after expiry = %d, want 0", got)
	}
	ws := pool.Workers()
	if len(ws) != 1 || ws[0].Alive {
		t.Fatalf("registry view = %+v, want one dead worker", ws)
	}
	if pool.Heartbeat("nope") {
		t.Fatal("heartbeat for an unknown id accepted")
	}
	// Re-registration at the same URL replaces the stale entry.
	pool.Register("w", "http://127.0.0.1:1")
	if ws := pool.Workers(); len(ws) != 1 || !ws[0].Alive {
		t.Fatalf("after re-register, registry view = %+v, want one live worker", ws)
	}
}
