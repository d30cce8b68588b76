package faultsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/stats"
)

// contractCampaign is the fixed campaign testdata/*_v1.json were captured
// from (at the commit before Tally existed).
func contractCampaign(t testing.TB) Campaign {
	return Campaign{App: lookup(t, "PENNANT"), Procs: 4, Trials: 24, Seed: 8, Workers: 2}
}

// contractBytes runs the contract campaign and renders the three formats
// that leave the process: the checkpoint file as RunAgainst writes it, a
// mid-campaign ShardResult as the dist tier ships it, and the store's
// SummaryRecord with its two non-count fields zeroed — wall time, and the
// derived CI95 floats, which an architecture that fuses multiply-add may
// round an ulp differently.
func contractBytes(t *testing.T) map[string][]byte {
	t.Helper()
	c := contractCampaign(t)
	c.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
	golden, err := ComputeGolden(c.App, "", c.Procs, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint, err := os.ReadFile(c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShardCtx(context.Background(), c, golden, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	rec := sum.Record(c.Normalized().Identity())
	rec.ElapsedNS, rec.CI95 = 0, stats.RateIntervals{}
	record, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"checkpoint_v1.json":     checkpoint,
		"shard_result_v1.json":   shard,
		"summary_record_v1.json": record,
	}
}

// TestFormatContract byte-compares the checkpoint file, the shard wire
// payload and the store record against committed captures: a change to
// any of them needs a version bump, not a silent re-encoding.  (The
// benchmark's digests and exact byte counts pin the same formats, but no
// root-module test did.)  The captures embed a cid:v2 identity, a key the
// formats carry but do not define, so it is compared at today's version.
func TestFormatContract(t *testing.T) {
	for name, got := range contractBytes(t) {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.ReplaceAll(want, []byte(`"cid:v2/`), fmt.Appendf(nil, `"cid:v%d/`, IdentityVersion))
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestV2CheckpointRefusesResume resumes the contract campaign from its
// cid:v2 capture, a checkpoint written before IdentityVersion 3: it must
// fail with ErrCheckpointMismatch instead of folding trials run under the
// old semantics into the new campaign.
func TestV2CheckpointRefusesResume(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := contractCampaign(t)
	c.Checkpoint, c.Resume = filepath.Join(t.TempDir(), "ck.json"), true
	if err := os.WriteFile(c.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := LoadCheckpoint(c.Checkpoint); err != nil || ck.Completed != 24 {
		t.Fatalf("the v1 capture no longer decodes: %v", err)
	}
	_, err = Run(c)
	if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "cid:v2/") {
		t.Fatalf("resume from a cid:v2 checkpoint: err %v, want ErrCheckpointMismatch naming it", err)
	}
}
