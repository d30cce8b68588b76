package faultsim

import (
	"context"
	"encoding/json"
	"testing"

	"resmod/internal/apps"
	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/pennant"
)

// shardTestCampaign is a small campaign whose full run is cheap enough
// for -race yet large enough that shard cuts land mid-word in the bitmap.
func shardTestCampaign(t *testing.T) (Campaign, *Golden) {
	t.Helper()
	app, err := apps.Lookup("PENNANT")
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{App: app, Procs: 4, Trials: 90, Errors: 1,
		Region: AnyRegion, Seed: 20180707, Workers: 3}
	golden, err := ComputeGolden(app, app.DefaultClass(), c.Procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, golden
}

// recordJSON renders the summary's stable record with wall time zeroed.
func recordJSON(t *testing.T, sum *Summary, identity string) string {
	t.Helper()
	rec := sum.Record(identity)
	if rec == nil {
		t.Fatal("nil SummaryRecord (interrupted summary?)")
	}
	rec.ElapsedNS = 0
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardMergeBitIdentical is the distributed determinism core: the
// same campaign run whole, as one shard, and as many unevenly-cut shards
// merged in a scrambled order must produce byte-identical SummaryRecords.
func TestShardMergeBitIdentical(t *testing.T) {
	c, golden := shardTestCampaign(t)
	identity := c.Normalized().Identity()

	local, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	covers := [][][2]int{
		{{0, 90}},                             // one shard = one worker
		{{0, 30}, {30, 60}, {60, 90}},         // three even workers
		{{64, 90}, {0, 7}, {31, 64}, {7, 31}}, // uneven cuts, scrambled order
	}
	for _, cover := range covers {
		m := NewMerger(c, golden)
		for _, r := range cover {
			res, err := RunShardCtx(context.Background(), c, golden, r[0], r[1])
			if err != nil {
				t.Fatalf("shard %v: %v", r, err)
			}
			if err := m.Merge(res); err != nil {
				t.Fatalf("merge %v: %v", r, err)
			}
		}
		if got := m.Done(); got != uint64(c.Trials) {
			t.Fatalf("cover %v: merger holds %d of %d trials", cover, got, c.Trials)
		}
		sum, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if got := recordJSON(t, sum, identity); got != want {
			t.Errorf("cover %v diverged from local run:\n got %s\nwant %s", cover, got, want)
		}
	}
}

// TestShardResultJSONRoundTrip guards the wire contract: a ShardResult
// must survive JSON (the dist tier's transport) and still merge.
func TestShardResultJSONRoundTrip(t *testing.T) {
	c, golden := shardTestCampaign(t)
	res, err := RunShardCtx(context.Background(), c, golden, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	m := NewMerger(c, golden)
	if err := m.Merge(&back); err != nil {
		t.Fatal(err)
	}
	if got := m.Done(); got != 30 {
		t.Fatalf("merged %d trials, want 30", got)
	}
	// Exactly [0,10) and [40,90) are still missing: no Summary yet, and
	// those two ranges, no others, complete it.
	if _, err := m.Summary(); err == nil {
		t.Fatal("Summary of a third of the campaign succeeded")
	}
	for _, r := range [][2]int{{0, 10}, {40, 90}} {
		rest, err := RunShardCtx(context.Background(), c, golden, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Merge(rest); err != nil {
			t.Fatalf("missing range %v refused: %v", r, err)
		}
	}
	if _, err := m.Summary(); err != nil {
		t.Fatal(err)
	}
}

// TestMergerRejectsOverlap: merging the same shard twice must fail loudly
// instead of double counting.
func TestMergerRejectsOverlap(t *testing.T) {
	c, golden := shardTestCampaign(t)
	res, err := RunShardCtx(context.Background(), c, golden, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(c, golden)
	if err := m.Merge(res); err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(res); err == nil {
		t.Fatal("double merge of the same shard was accepted")
	}
	if got := m.Done(); got != 20 {
		t.Fatalf("overlap rejection left %d trials merged, want 20", got)
	}
}

// TestMergerRejectsForeignShard: a shard of a different campaign (other
// seed) must be rejected by identity.
func TestMergerRejectsForeignShard(t *testing.T) {
	c, golden := shardTestCampaign(t)
	other := c
	other.Seed++
	res, err := RunShardCtx(context.Background(), other, golden, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(c, golden)
	if err := m.Merge(res); err == nil {
		t.Fatal("foreign-campaign shard was accepted")
	}
}

// TestShardInterruptedNotMergeable: a canceled shard returns an error,
// never a partial result the dispatcher could mistakenly merge.
func TestShardInterruptedNotMergeable(t *testing.T) {
	c, golden := shardTestCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunShardCtx(ctx, c, golden, 0, 30); err == nil {
		t.Fatalf("canceled shard returned result %+v, want error", res)
	}
}
