package faultsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"resmod/internal/apps"
	_ "resmod/internal/apps/pennant"
	"resmod/internal/faultsim"
	"resmod/internal/stats"
	"resmod/internal/store"
)

// TestCorruptTallyIsRejectedAtEveryDoor drives each way a tally can be
// wrong through the three places one enters the process — a checkpoint
// resumed by RunAgainst, a worker's ShardResult handed to Merger.Merge, a
// store record restored by CampaignCache.GetSummary — and expects the same
// verdict from all three: a clean error (a cache miss, for the store),
// never a Summary with a different number in it.
func TestCorruptTallyIsRejectedAtEveryDoor(t *testing.T) {
	app, err := apps.Lookup("PENNANT")
	if err != nil {
		t.Fatal(err)
	}
	// The format-contract campaign: Hist [22 1 0 1], so there are occupied
	// bins to disagree with and an empty one to invent an entry for.
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	c := faultsim.Campaign{App: app, Procs: 4, Trials: 24, Seed: 8, Workers: 2, Checkpoint: ckPath}
	identity := c.Normalized().Identity()
	golden, err := faultsim.ComputeGolden(app, "", c.Procs, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	want, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	goodCk, err := faultsim.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	goodRes, err := faultsim.RunShardCtx(context.Background(), c, golden, 0, c.Trials)
	if err != nil {
		t.Fatal(err)
	}
	goodRec := want.Record(identity)
	if goodCk.Hist[2] != 0 || goodCk.ByContamination[2].SDC != 1 || goodCk.ByContamination[1].Success == 0 {
		t.Fatalf("the campaign's tally %+v is not the one the mutations below assume", goodCk.Tally)
	}

	// Each door takes a pristine deep copy of its carrier (through JSON),
	// applies the mutation and reports what came of it.
	c.Resume = true
	resume := func(mutate func(*faultsim.Checkpoint)) error {
		ck := clone(t, goodCk)
		mutate(ck)
		if err := faultsim.SaveCheckpoint(ckPath, ck); err != nil {
			t.Fatal(err)
		}
		_, err := faultsim.RunAgainst(c, golden)
		return err
	}
	merge := func(mutate func(*faultsim.Checkpoint)) error {
		res := clone(t, goodRes)
		mutate(res.Checkpoint)
		m := faultsim.NewMerger(c, golden)
		before := m.Tallies()
		err := m.Merge(res)
		if err != nil {
			if got := m.Tallies(); got != before {
				t.Errorf("rejected merge changed the merger: %+v, was %+v", got, before)
			}
			if err := m.Merge(goodRes); err != nil {
				t.Errorf("clean retry after a rejected merge refused: %v", err)
			}
		}
		return err
	}
	restore := func(mutate func(*faultsim.Tally)) bool {
		st, err := store.Open(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rec := clone(t, goodRec)
		mutate(&rec.Tally)
		if err := st.PutJSON(identity, rec); err != nil {
			t.Fatal(err)
		}
		_, hit := store.CampaignCache{Store: st}.GetSummary(identity)
		return hit
	}

	if err := resume(func(*faultsim.Checkpoint) {}); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	if err := merge(func(*faultsim.Checkpoint) {}); err != nil {
		t.Fatalf("intact shard result refused: %v", err)
	}
	if !restore(func(*faultsim.Tally) {}) {
		t.Fatal("intact store record missed")
	}

	// cond edits the conditional counter of bin x (creating it if absent).
	cond := func(x int, edit func(*stats.Counter)) func(*faultsim.Tally) {
		return func(tl *faultsim.Tally) {
			bc := tl.ByContamination[x]
			edit(&bc)
			tl.ByContamination[x] = bc
		}
	}
	rekey := func(from, to int) func(*faultsim.Tally) {
		return func(tl *faultsim.Tally) {
			tl.ByContamination[to] = tl.ByContamination[from]
			delete(tl.ByContamination, from)
		}
	}
	for name, mutate := range map[string]func(*faultsim.Tally){
		"outcomes exceed the done count":          func(tl *faultsim.Tally) { tl.Success++ },
		"outcome moved from success to sdc":       func(tl *faultsim.Tally) { tl.Success--; tl.SDC++ },
		"outcomes that only sum modulo 2^64":      func(tl *faultsim.Tally) { tl.Success, tl.SDC = ^uint64(0), tl.Success+tl.SDC+1 },
		"histogram bin bumped":                    func(tl *faultsim.Tally) { tl.Hist[0] += 5 },
		"histogram count moved between bins":      func(tl *faultsim.Tally) { tl.Hist[0]--; tl.Hist[1]++ },
		"conditional counter bumped":              cond(1, func(bc *stats.Counter) { bc.Success++ }),
		"conditional counter counts a failure":    cond(1, func(bc *stats.Counter) { bc.Failure++ }),
		"conditional success recounted as sdc":    cond(1, func(bc *stats.Counter) { bc.Success--; bc.SDC++ }),
		"conditional counter dropped":             func(tl *faultsim.Tally) { delete(tl.ByContamination, 2) },
		"conditional counter for an empty bin":    cond(3, func(*stats.Counter) {}),
		"conditional counter below the first bin": rekey(2, 0),
		"conditional counter beyond the last bin": rekey(2, 5),
	} {
		onCk := func(ck *faultsim.Checkpoint) { mutate(&ck.Tally) }
		if err := resume(onCk); !errors.Is(err, faultsim.ErrCheckpointMismatch) {
			t.Errorf("%s: resume returned %v, want ErrCheckpointMismatch", name, err)
		}
		if err := merge(onCk); !errors.Is(err, faultsim.ErrCheckpointMismatch) {
			t.Errorf("%s: Merge returned %v, want ErrCheckpointMismatch", name, err)
		}
		if restore(mutate) {
			t.Errorf("%s: store record served as a hit", name)
		}
	}

	// A done bit past the last trial, with a tally that is consistent with
	// it: only the bitmap gives it away.  (A store record has no bitmap.)
	ghost := func(ck *faultsim.Checkpoint) {
		ck.Done[0] |= 1 << 40
		ck.Completed++
		ck.Success++
		ck.Hist[0]++
		cond(1, func(bc *stats.Counter) { bc.Success++ })(&ck.Tally)
	}
	if err := resume(ghost); !errors.Is(err, faultsim.ErrCheckpointMismatch) {
		t.Errorf("done bit beyond Trials: resume returned %v, want ErrCheckpointMismatch", err)
	}
	if err := merge(ghost); !errors.Is(err, faultsim.ErrCheckpointMismatch) {
		t.Errorf("done bit beyond Trials: Merge returned %v, want ErrCheckpointMismatch", err)
	}
}

// clone deep-copies v through its JSON form.
func clone[T any](t *testing.T, v *T) *T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}
