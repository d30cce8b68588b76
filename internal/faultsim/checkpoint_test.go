package faultsim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"resmod/internal/apps"
)

// equalResults asserts that two summaries carry bit-identical campaign
// results: Rates, Counts, Hist, ByContamination, SpreadByDistance and the
// derived AvgFired.
func equalResults(t *testing.T, want, got *Summary, label string) {
	t.Helper()
	if want.Rates != got.Rates {
		t.Fatalf("%s: Rates differ: %+v vs %+v", label, want.Rates, got.Rates)
	}
	if want.Counts != got.Counts {
		t.Fatalf("%s: Counts differ: %+v vs %+v", label, want.Counts, got.Counts)
	}
	if !reflect.DeepEqual(want.Hist.Counts, got.Hist.Counts) {
		t.Fatalf("%s: Hist differs: %v vs %v", label, want.Hist.Counts, got.Hist.Counts)
	}
	if !reflect.DeepEqual(want.SpreadByDistance, got.SpreadByDistance) {
		t.Fatalf("%s: SpreadByDistance differs: %v vs %v",
			label, want.SpreadByDistance, got.SpreadByDistance)
	}
	if !reflect.DeepEqual(want.ByContamination, got.ByContamination) {
		t.Fatalf("%s: ByContamination differs: %v vs %v",
			label, want.ByContamination, got.ByContamination)
	}
	if want.AvgFired != got.AvgFired {
		t.Fatalf("%s: AvgFired differs: %v vs %v", label, want.AvgFired, got.AvgFired)
	}
	if want.TrialsDone != got.TrialsDone {
		t.Fatalf("%s: TrialsDone differs: %d vs %d", label, want.TrialsDone, got.TrialsDone)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	agg := newAggregate(4, 100)
	agg.record(3, TrialRecord{Outcome: Success, Contaminated: 1, Fired: 1, Distances: []int{0}})
	agg.record(17, TrialRecord{Outcome: SDC, Contaminated: 4, Fired: 2, Distances: []int{0, 1, 1, 2}})
	agg.record(64, TrialRecord{Outcome: Failure, Fired: 1})
	ck := agg.snapshot("app/X/p4/t100/e1/r0/s1/pat0")

	path := filepath.Join(t.TempDir(), "ck.json")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("checkpoint round trip mismatch:\nwant %+v\ngot  %+v", ck, got)
	}

	// The loaded snapshot restores into a fresh aggregate and reproduces
	// an identical snapshot.
	agg2 := newAggregate(4, 100)
	if err := agg2.mergeDisjoint(got, ck.Identity); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg2.snapshot(ck.Identity), ck) {
		t.Fatal("restore does not reproduce the snapshot")
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if err == nil {
		t.Fatal("missing checkpoint loaded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("error does not wrap os.ErrNotExist: %v", err)
	}
}

// TestResumeDeterminism is the acceptance property: a campaign interrupted
// at an arbitrary trial boundary and resumed from its checkpoint produces
// a Summary bit-identical to the same campaign run uninterrupted — across
// several seeds.
func TestResumeDeterminism(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		base := Campaign{App: app, Procs: 2, Trials: 30, Seed: seed, Workers: 3}

		want, err := RunAgainst(base, golden)
		if err != nil {
			t.Fatalf("seed %d: uninterrupted run: %v", seed, err)
		}

		// Interrupt a checkpointing run once ~a third of the trials are
		// tallied; in-flight trials may still land, so the cut point is
		// arbitrary — exactly what resume must tolerate.
		path := filepath.Join(t.TempDir(), "ck.json")
		ctx, cancel := context.WithCancel(context.Background())
		interrupted := base
		interrupted.Checkpoint = path
		interrupted.hooks = &campaignHooks{trialDone: func(done uint64) {
			if done >= 10 {
				cancel()
			}
		}}
		partial, err := RunAgainstCtx(ctx, interrupted, golden)
		cancel()
		if err != nil {
			t.Fatalf("seed %d: interrupted run: %v", seed, err)
		}
		if !partial.Interrupted {
			t.Fatalf("seed %d: run not interrupted (TrialsDone=%d)", seed, partial.TrialsDone)
		}
		if partial.TrialsDone == 0 || partial.TrialsDone >= 30 {
			t.Fatalf("seed %d: TrialsDone = %d, want a strict partial", seed, partial.TrialsDone)
		}

		// Resume from the snapshot and finish the campaign.
		resumed := base
		resumed.Checkpoint = path
		resumed.Resume = true
		got, err := RunAgainst(resumed, golden)
		if err != nil {
			t.Fatalf("seed %d: resumed run: %v", seed, err)
		}
		if got.Interrupted {
			t.Fatalf("seed %d: resumed run still interrupted", seed)
		}
		equalResults(t, want, got, "resumed vs uninterrupted")

		// Resuming an already-complete campaign replays the tallies from
		// the snapshot without rerunning any trial and stays identical.
		again, err := RunAgainst(resumed, golden)
		if err != nil {
			t.Fatalf("seed %d: second resume: %v", seed, err)
		}
		equalResults(t, want, again, "re-resumed vs uninterrupted")
	}
}

func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	c := Campaign{App: app, Procs: 2, Trials: 8, Seed: 1, Checkpoint: path}
	if _, err := RunAgainst(c, golden); err != nil {
		t.Fatal(err)
	}
	// Same file, different seed: the identity no longer matches.
	c.Seed = 2
	c.Resume = true
	if _, err := RunAgainst(c, golden); err == nil {
		t.Fatal("checkpoint of a different campaign accepted")
	}
}

func TestResumeWithMissingCheckpointStartsFresh(t *testing.T) {
	app := lookup(t, "PENNANT")
	golden, err := ComputeGolden(app, "", 2, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "never-written.json")
	c := Campaign{App: app, Procs: 2, Trials: 8, Seed: 1, Checkpoint: path, Resume: true}
	sum, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TrialsDone != 8 {
		t.Fatalf("TrialsDone = %d, want 8", sum.TrialsDone)
	}
}

// TestWriteFileAtomicCleansUpOnFailure: a write that cannot be committed
// (the target is a non-empty directory) reports the error and leaves no
// temporary file beside it.
func TestWriteFileAtomicCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.json")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("{}")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ck.json" {
		t.Fatalf("failed write left %v behind", ents)
	}
}
