package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"resmod/internal/apps"
	_ "resmod/internal/apps/ep"
	"resmod/internal/telemetry"
)

// mergerState is everything a caller can observe of a Merger between
// merges — what a rejected Merge must leave untouched.
type mergerState struct {
	tallies  ShardStatus
	exceeded bool
}

func stateOf(m *Merger) mergerState {
	return mergerState{m.Tallies(), m.AbnormalExceeded()}
}

// TestMergeRejectionLeavesMergerUntouched: a result rejected for a bad
// abnormal index must not leave its tallies behind, or the requeued chunk
// would be refused forever as an overlap.
func TestMergeRejectionLeavesMergerUntouched(t *testing.T) {
	c, golden := shardTestCampaign(t)
	good, err := RunShardCtx(context.Background(), c, golden, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, abnormal := range map[string]int{
		"outside the campaign":  c.Trials,
		"outside the shard":     4,
		"a trial the shard ran": 2,
	} {
		m := NewMerger(c, golden)
		before := stateOf(m)
		bad := *good
		bad.Abnormal = []AbnormalTrial{{Trial: abnormal, Err: "boom"}}
		if err := m.Merge(&bad); err == nil {
			t.Fatalf("abnormal trial %s: result accepted", name)
		}
		if got := stateOf(m); !reflect.DeepEqual(got, before) {
			t.Fatalf("abnormal trial %s: rejected merge changed the merger:\n got %+v\nwant %+v", name, got, before)
		}
		if err := m.Merge(good); err != nil {
			t.Fatalf("abnormal trial %s: clean retry of the chunk refused: %v", name, err)
		}
	}

	// A Done bit outside the result's own [Start, End) is rejected too.
	m := NewMerger(c, golden)
	bad := *good
	bad.End = 3
	if err := m.Merge(&bad); err == nil {
		t.Fatal("result tallying a trial past its End was accepted")
	}
	if got := m.Done(); got != 0 {
		t.Fatalf("rejected merge left %d trials merged", got)
	}
}

// TestMergerProperty: for seeded random disjoint covers of [0, Trials)
// delivered in random order, salted with duplicates and overlapping
// re-cuts, every Merge either folds the result in or rejects it with the
// merger unchanged — a rejection that left a trial accounted for would get
// the gap's own delivery refused — and once the dispatcher's requeue rule
// (run what is still uncovered) has filled the gaps, the Summary is the
// single-node SummaryRecord byte for byte.
func TestMergerProperty(t *testing.T) {
	// EP: the cheapest registered app under -race, with a mixed
	// success/SDC tally; 70 trials put cuts on both sides of a bitmap word.
	app := lookup(t, "EP")
	c := Campaign{App: app, Procs: 2, Trials: 70, Seed: 20180813, Workers: 2}
	golden, err := ComputeGolden(app, "", c.Procs, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	identity := c.Normalized().Identity()
	local, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := recordJSON(t, local, identity)

	// The engine runs every trial once more, as 70 one-trial shards; a
	// range's result is then the fold of its trials' snapshots, which keeps
	// hundreds of random deliveries cheap under -race.
	single := make([]*ShardResult, c.Trials)
	for i := range single {
		if single[i], err = RunShardCtx(context.Background(), c, golden, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	shard := func(start, end int) *ShardResult {
		agg := newAggregate(c.Procs, c.Trials)
		for _, s := range single[start:end] {
			if err := agg.mergeDisjoint(s.Checkpoint, identity); err != nil {
				t.Fatal(err)
			}
		}
		return &ShardResult{Start: start, End: end, Checkpoint: agg.snapshot(identity)}
	}
	// The fold is what the executor itself returns for the range.
	if real, err := RunShardCtx(context.Background(), c, golden, 58, 70); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(real, shard(58, 70)) {
		t.Fatal("folded one-trial shards differ from the executor's shard [58,70)")
	}

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cuts := []int{0, c.Trials}
		for n := rng.Intn(8); n > 0; n-- {
			cuts = append(cuts, 1+rng.Intn(c.Trials-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var deliveries [][2]int
		for i := 1; i < len(cuts); i++ {
			deliveries = append(deliveries, [2]int{cuts[i-1], cuts[i]})
		}
		for n := rng.Intn(4); n > 0; n-- { // duplicates
			deliveries = append(deliveries, deliveries[rng.Intn(len(deliveries))])
		}
		for n := rng.Intn(4); n > 0; n-- { // overlapping re-cuts
			start := rng.Intn(c.Trials)
			deliveries = append(deliveries, [2]int{start, start + 1 + rng.Intn(c.Trials-start)})
		}
		rng.Shuffle(len(deliveries), func(i, j int) {
			deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
		})

		m := NewMerger(c, golden)
		covered := make([]bool, c.Trials)
		for _, r := range deliveries {
			before := stateOf(m)
			err := m.Merge(shard(r[0], r[1]))
			if slices.Contains(covered[r[0]:r[1]], true) {
				if err == nil {
					t.Fatalf("seed %d: overlapping delivery %v accepted (deliveries %v)", seed, r, deliveries)
				}
				if got := stateOf(m); !reflect.DeepEqual(got, before) {
					t.Fatalf("seed %d: rejected delivery %v changed the merger:\n got %+v\nwant %+v", seed, r, got, before)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: disjoint delivery %v rejected: %v (deliveries %v)", seed, r, err, deliveries)
			}
			for i := r[0]; i < r[1]; i++ {
				covered[i] = true
			}
		}
		for start := 0; start < c.Trials; {
			if covered[start] {
				start++
				continue
			}
			end := start
			for end < c.Trials && !covered[end] {
				end++
			}
			if _, err := m.Summary(); err == nil {
				t.Fatalf("seed %d: Summary of a merger missing [%d,%d) succeeded", seed, start, end)
			}
			if err := m.Merge(shard(start, end)); err != nil {
				t.Fatalf("seed %d: requeued gap [%d,%d) rejected: %v", seed, start, end, err)
			}
			start = end
		}
		sum, err := m.Summary()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := recordJSON(t, sum, identity); got != want {
			t.Fatalf("seed %d: merged record diverged from the single-node run (deliveries %v):\n got %s\nwant %s",
				seed, deliveries, got, want)
		}
	}
}

// TestShardTraceHasTrialBatches: a shard runs the same loop as a campaign,
// so its trace carries one trial-batch span per worker under the shard
// span, and their trials attrs account for the whole range.
func TestShardTraceHasTrialBatches(t *testing.T) {
	c, golden := shardTestCampaign(t)
	tr := telemetry.NewTracer()
	ctx := telemetry.With(context.Background(), telemetry.New(nil, tr, nil))
	const start, end = 7, 41
	if _, err := RunShardCtx(ctx, c, golden, start, end); err != nil {
		t.Fatal(err)
	}
	var shardID uint64
	for _, v := range tr.Spans() {
		if v.Name == "shard" {
			shardID = v.ID
		}
	}
	if shardID == 0 {
		t.Fatal("no shard span")
	}
	batches, trials := 0, 0
	for _, v := range tr.Spans() {
		if v.Name != "trial-batch" || v.Parent != shardID {
			continue
		}
		batches++
		for _, a := range v.Attrs {
			if a.Key == "trials" {
				trials += a.Value.(int)
			}
		}
	}
	if batches != c.Workers || trials != end-start {
		t.Fatalf("%d trial-batch spans totalling %d trials under the shard span, want %d totalling %d",
			batches, trials, c.Workers, end-start)
	}
}
