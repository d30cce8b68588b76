package faultsim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/telemetry"
)

// TestShardObserverSeesMonotoneTallies: an observer installed on the
// context receives snapshots whose Done count never regresses, ends on
// the exact final tallies, and — the non-negotiable part — observing a
// shard leaves its result byte-identical to an unobserved run.  The
// "slow first call" case sleeps inside the observer's first call, which
// stands for a preemption between taking a snapshot and delivering it:
// the trials that finish meanwhile must not overtake it.
func TestShardObserverSeesMonotoneTallies(t *testing.T) {
	c, golden := shardTestCampaign(t)
	identity := c.Normalized().Identity()

	plain, err := RunShardCtx(context.Background(), c, golden, 0, c.Trials)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		first time.Duration
	}{{"fast", 0}, {"slow first call", 50 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []ShardStatus
			var calls atomic.Int64
			ctx := WithShardObserver(context.Background(), func(st ShardStatus) {
				if calls.Add(1) == 1 {
					time.Sleep(tc.first)
				}
				mu.Lock()
				seen = append(seen, st)
				mu.Unlock()
			})
			observed, err := RunShardCtx(ctx, c, golden, 0, c.Trials)
			if err != nil {
				t.Fatal(err)
			}
			checkObserved(t, c, golden, identity, plain, observed, seen)
		})
	}
}

// checkObserved holds an observed shard to the unobserved one and its
// snapshots to the observer contract.
func checkObserved(t *testing.T, c Campaign, golden *Golden, identity string, plain, observed *ShardResult, seen []ShardStatus) {
	t.Helper()
	mo := NewMerger(c, golden)
	if err := mo.Merge(observed); err != nil {
		t.Fatal(err)
	}
	mp := NewMerger(c, golden)
	if err := mp.Merge(plain); err != nil {
		t.Fatal(err)
	}
	so, err := mo.Summary()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mp.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recordJSON(t, so, identity), recordJSON(t, sp, identity); got != want {
		t.Fatalf("observer perturbed the shard result:\n got %s\nwant %s", got, want)
	}

	if len(seen) == 0 {
		t.Fatal("observer never called")
	}
	var prev uint64
	for i, st := range seen {
		if st.Start != 0 || st.End != c.Trials {
			t.Fatalf("snapshot %d range [%d,%d), want [0,%d)", i, st.Start, st.End, c.Trials)
		}
		if st.Done < prev {
			t.Fatalf("snapshot %d regressed: Done %d after %d", i, st.Done, prev)
		}
		if st.Success+st.SDC+st.Failure != st.Done {
			t.Fatalf("snapshot %d outcome sum %d != Done %d",
				i, st.Success+st.SDC+st.Failure, st.Done)
		}
		prev = st.Done
	}
	final := seen[len(seen)-1]
	if final.Done != uint64(c.Trials) {
		t.Fatalf("final snapshot Done = %d, want %d", final.Done, c.Trials)
	}
	if final.Success != observed.Checkpoint.Success || final.SDC != observed.Checkpoint.SDC ||
		final.Failure != observed.Checkpoint.Failure {
		t.Fatalf("final snapshot %+v disagrees with shard checkpoint %+v", final, observed.Checkpoint)
	}
}

// TestMergerTallies: Tallies tracks what merged, over the campaign range.
func TestMergerTallies(t *testing.T) {
	c, golden := shardTestCampaign(t)
	m := NewMerger(c, golden)
	if st := m.Tallies(); st.Done != 0 || st.Start != 0 || st.End != c.Trials {
		t.Fatalf("fresh merger tallies %+v", st)
	}
	res, err := RunShardCtx(context.Background(), c, golden, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(res); err != nil {
		t.Fatal(err)
	}
	st := m.Tallies()
	if st.Done != 30 {
		t.Fatalf("after one 30-trial shard, Done = %d", st.Done)
	}
	if st.Success != res.Checkpoint.Success || st.SDC != res.Checkpoint.SDC || st.Failure != res.Checkpoint.Failure {
		t.Fatalf("tallies %+v disagree with shard checkpoint %+v", st, res.Checkpoint)
	}
}

// TestBuildProgressEvent pins the event assembly: tallies map through,
// rate and ETA derive from ran/elapsed, CIs appear once outcomes exist.
func TestBuildProgressEvent(t *testing.T) {
	st := ShardStatus{End: 100, Done: 40, Success: 30, SDC: 6, Failure: 4, Retried: 2}
	ev := BuildProgressEvent("cid:test", telemetry.StateRunning, 100, st, 2*time.Second, 40)
	if ev.Kind != telemetry.KindCampaign || ev.Key != "cid:test" || ev.State != telemetry.StateRunning {
		t.Fatalf("event header %+v", ev)
	}
	if ev.Done != 40 || ev.Total != 100 || ev.Success != 30 || ev.SDC != 6 || ev.Failure != 4 || ev.Retried != 2 {
		t.Fatalf("event tallies %+v", ev)
	}
	if ev.TrialsPerSec != 20 {
		t.Fatalf("rate = %g, want 20", ev.TrialsPerSec)
	}
	if ev.ETASeconds != 3 {
		t.Fatalf("eta = %g, want 3 (60 trials at 20/s)", ev.ETASeconds)
	}
	if ev.SuccessCI == nil || ev.SDCCI == nil || ev.FailureCI == nil {
		t.Fatal("missing confidence intervals with outcomes present")
	}
	// No outcomes yet: no rate without elapsed trials, no CIs.
	empty := BuildProgressEvent("cid:test", telemetry.StateRunning, 100, ShardStatus{End: 100}, time.Second, 0)
	if empty.TrialsPerSec != 0 || empty.ETASeconds != 0 || empty.SuccessCI != nil {
		t.Fatalf("empty event grew derived fields: %+v", empty)
	}
}
