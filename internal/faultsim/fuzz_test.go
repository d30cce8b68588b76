package faultsim

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The two decoders that take tallies from outside the process, fuzzed
// from the format-contract captures (`make fuzz`): whatever the bytes,
// they never panic, and anything Tally.check lets through is a Summary a
// campaign could have produced.

func contractFile(f *testing.F, name string) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// wellFormed asserts what holds for every real campaign's Summary: rates
// that sum to 1, a histogram over exactly the non-failure tests, and no
// more trials than the campaign has.
func wellFormed(t *testing.T, sum *Summary, trials uint64) {
	t.Helper()
	if sum.TrialsDone > trials || sum.Counts.Total() != sum.TrialsDone {
		t.Fatalf("%d trials done, outcomes %+v, campaign of %d", sum.TrialsDone, sum.Counts, trials)
	}
	if r := sum.Rates; sum.TrialsDone > 0 && math.Abs(r.Success+r.SDC+r.Failure-1) > 1e-9 {
		t.Fatalf("rates %+v do not sum to 1", r)
	}
	if got, want := sum.Hist.Total(), sum.Counts.Success+sum.Counts.SDC; got != want {
		t.Fatalf("histogram %v covers %d tests, want %d", sum.Hist.Counts, got, want)
	}
}

func FuzzCheckpointMerge(f *testing.F) {
	c := contractCampaign(f).Normalized()
	identity := c.Identity()
	f.Add(contractFile(f, "checkpoint_v1.json"))
	var res ShardResult // a partial snapshot too: half the done bits
	if err := json.Unmarshal(contractFile(f, "shard_result_v1.json"), &res); err != nil {
		f.Fatal(err)
	}
	partial, err := json.Marshal(res.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(partial)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck := &Checkpoint{}
		if json.Unmarshal(data, ck) != nil {
			return
		}
		agg := newAggregate(c.Procs, c.Trials)
		if err := agg.mergeDisjoint(ck, identity); err != nil {
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("rejection is not an ErrCheckpointMismatch: %v", err)
			}
			return
		}
		wellFormed(t, agg.summary(nil), uint64(c.Trials))
	})
}

func FuzzSummaryRecordRestore(f *testing.F) {
	f.Add(contractFile(f, "summary_record_v1.json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &SummaryRecord{}
		if json.Unmarshal(data, rec) != nil {
			return
		}
		if sum, err := rec.Restore(); err == nil {
			wellFormed(t, sum, rec.TrialsDone)
		}
	})
}
