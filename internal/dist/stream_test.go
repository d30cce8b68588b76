package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// streamFixture is a campaign small enough to dispatch as one chunk, the
// real shard results a scripted worker can answer with, and the
// single-node record every scenario must still merge to.
type streamFixture struct {
	c        faultsim.Campaign
	golden   *faultsim.Golden
	identity string
	want     string
	whole    string // terminal frame for [0, Trials)
	half     string // terminal frame for [0, Trials/2)
}

const streamTrials = 24

func newStreamFixture(t *testing.T) streamFixture {
	t.Helper()
	c, golden := testCampaign(t)
	c.Trials = streamTrials
	fx := streamFixture{c: c, golden: golden, identity: c.Normalized().Identity()}
	local, err := faultsim.RunAgainst(c, golden)
	if err != nil {
		t.Fatal(err)
	}
	fx.want = recordJSON(t, local, fx.identity)
	fx.whole = resultFrame(t, c, golden, streamTrials)
	fx.half = resultFrame(t, c, golden, streamTrials/2)
	return fx
}

// resultFrame runs shard [0, end) for real and renders the worker's
// terminal frame for it.
func resultFrame(t testing.TB, c faultsim.Campaign, golden *faultsim.Golden, end int) string {
	t.Helper()
	res, err := faultsim.RunShardCtx(context.Background(), c, golden, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	return frame(t, ShardResponse{Worker: "scripted", Result: res, ElapsedNS: 1})
}

// frame renders one newline-terminated stream frame.
func frame(t testing.TB, f ShardResponse) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func progressFrame(t testing.TB, st faultsim.ShardStatus) string {
	return frame(t, ShardResponse{Progress: &st})
}

// TestShardStream drives Pool.Distribute against one scripted worker that
// answers the campaign's only chunk with a fixed byte stream.  A good
// stream merges remotely; every bad one — truncated, an in-band error, a
// progress frame that lies about its range or its counts, a result for
// another range — fails the dispatch, so the chunk requeues, nothing of
// the reply reaches the merger, and the local tail still produces the
// single-node record.  Either way the published Done never runs backwards,
// even though a failed chunk's reported trials leave the in-flight sum
// ("worker dies after reporting").
func TestShardStream(t *testing.T) {
	fx := newStreamFixture(t)
	ok := progressFrame(t, faultsim.ShardStatus{Start: 0, End: streamTrials, Done: 5, Success: 4, SDC: 1})
	ok2 := progressFrame(t, faultsim.ShardStatus{Start: 0, End: streamTrials, Done: 9, Success: 7, SDC: 1, Failure: 1, Abnormal: 1})

	for _, tc := range []struct {
		name   string
		reply  string
		frames uint64 // progress frames accepted
		remote bool   // the reply's result merges
	}{
		{"progress then result", ok + ok2 + fx.whole, 2, true},
		{"result alone", fx.whole, 0, true},
		{"worker dies after reporting", ok + ok2, 2, false},
		{"worker dies mid-frame", ok + `{"progress":{"start":0,`, 1, false},
		{"empty reply", "", 0, false},
		{"empty frame", ok + "{}\n", 1, false},
		{"in-band error", ok + frame(t, ShardResponse{Worker: "scripted", Error: "boom"}), 1, false},
		{"progress outside the chunk", ok + progressFrame(t, faultsim.ShardStatus{
			Start: 0, End: streamTrials + 1, Done: 6, Success: 6}) + fx.whole, 1, false},
		{"progress over-counts the chunk", progressFrame(t, faultsim.ShardStatus{
			Start: 0, End: streamTrials, Done: streamTrials + 1, Success: streamTrials + 1}) + fx.whole, 0, false},
		{"progress counts do not sum", progressFrame(t, faultsim.ShardStatus{
			Start: 0, End: streamTrials, Done: 5, Success: 5, SDC: 1}) + fx.whole, 0, false},
		{"progress counts wrap around", progressFrame(t, faultsim.ShardStatus{
			Start: 0, End: streamTrials, Done: 1, Success: math.MaxUint64, SDC: 2}) + fx.whole, 0, false},
		{"result for another range", ok + fx.half, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				var req ShardRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !req.Progress ||
					req.Start != 0 || req.End != streamTrials {
					t.Errorf("dispatch = %+v (decode error %v), want the whole campaign with progress on", req, err)
				}
				_, _ = io.WriteString(rw, tc.reply)
			}))
			defer srv.Close()
			pool := NewPool(PoolConfig{HeartbeatTimeout: 30 * time.Second, ShardsPerWorker: 1, MinShard: streamTrials})
			pool.Register("scripted", srv.URL)

			prog := telemetry.NewProgress()
			sub := prog.Subscribe(4096)
			defer sub.Close()
			ctx := telemetry.With(context.Background(), telemetry.New(nil, nil, nil).WithProgress(prog))
			sum, handled, err := pool.Distribute(ctx, fx.c, fx.golden)
			if err != nil || !handled {
				t.Fatalf("Distribute = (%v, %v)", handled, err)
			}
			if got := recordJSON(t, sum, fx.identity); got != fx.want {
				t.Errorf("merged record diverged from the single-node run:\n got %s\nwant %s", got, fx.want)
			}

			want := PoolStats{WorkersKnown: 1, WorkersAlive: 1, Campaigns: 1, ShardsDispatched: 1,
				ShardsRequeued: 1, ShardsLocal: 1, ProgressReports: tc.frames}
			if tc.remote {
				want.ShardsCompleted, want.ShardsRequeued, want.ShardsLocal = 1, 0, 0
			}
			if st := pool.Stats(); st != want {
				t.Errorf("pool stats = %+v, want %+v", st, want)
			}

			evs := campaignEvents(sub, fx.identity)
			var high uint64
			for i, ev := range evs {
				if ev.Done < high || ev.Done > streamTrials {
					t.Fatalf("event %d: Done %d after %d (of %d trials)", i, ev.Done, high, streamTrials)
				}
				high = ev.Done
			}
			if last := evs[len(evs)-1]; last.State != telemetry.StateDone || last.Done != streamTrials {
				t.Errorf("terminal event = {state %s, done %d}, want {done, %d}", last.State, last.Done, streamTrials)
			}
			// ok2's tally is recognisable: no trial of this campaign is abnormal.
			reported := false
			for _, ev := range evs {
				reported = reported || (ev.State == telemetry.StateRunning && ev.Done == 9 && ev.Abnormal == 1)
			}
			if reported != (tc.frames == 2) {
				t.Errorf("second in-flight tally published = %v with %d accepted frames", reported, tc.frames)
			}
		})
	}
}

// FuzzShardStream: whatever bytes a worker's reply holds, reading it ends
// in an error or in a result of the dispatched range that Merger.Merge
// then accepts or rejects whole — never in a panic, and never with a
// progress frame the validation should have stopped.
func FuzzShardStream(f *testing.F) {
	c, golden := testCampaign(f)
	c.Trials = streamTrials
	whole := resultFrame(f, c, golden, streamTrials)
	ok := progressFrame(f, faultsim.ShardStatus{Start: 0, End: streamTrials, Done: 5, Success: 4, SDC: 1})
	f.Add([]byte(whole))
	f.Add([]byte(ok + ok + whole))
	f.Add([]byte(ok + `{"error":"boom"}`))
	f.Add([]byte(resultFrame(f, c, golden, streamTrials/2)))
	f.Fuzz(func(t *testing.T, reply []byte) {
		sr, err := readShardStream(bytes.NewReader(reply), [2]int{0, streamTrials}, func(st faultsim.ShardStatus) {
			if st.Start != 0 || st.End != streamTrials || st.Done > streamTrials ||
				st.Success+st.SDC+st.Failure != st.Done || st.Done+st.Abnormal > streamTrials {
				t.Fatalf("invalid progress frame got through: %+v", st)
			}
		})
		if err != nil {
			return
		}
		m := faultsim.NewMerger(c, golden)
		if err := m.Merge(sr.Result); err == nil && m.Done() > streamTrials {
			t.Fatalf("merged %d trials of a %d-trial campaign", m.Done(), streamTrials)
		} else if err != nil && m.Done() != 0 {
			t.Fatalf("rejected result left %d trials in the merger", m.Done())
		}
	})
}
