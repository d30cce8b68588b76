// Package dist is the distributed trial-execution tier: a coordinator
// Pool that shards a campaign's trial range [0, Trials) across
// registered Worker nodes over HTTP JSON, health-checks them via
// heartbeats, re-shards the unfinished ranges of dead workers onto
// survivors, and merges the returned shard tallies into a Summary
// bit-identical to a single-node run.
//
// Determinism across processes rests on two invariants the faultsim
// layer already provides: every trial's RNG stream is split from the
// campaign seed by the *global* trial index (never shard index or
// worker identity), and all shard tallies are commutative integer
// counts carried as PR 1 Checkpoints — so any disjoint cover of the
// trial range, in any dispatch order, with any re-shard history, merges
// to the same SummaryRecord bytes.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Correlation headers on coordinator→worker dispatch requests.  The
// request ID is the server middleware's X-Request-ID, echoed back on the
// response and folded into worker slog fields so one grep reconstructs a
// request's hop-by-hop story; the parent span ID names the coordinator's
// dispatch span so returned shard spans graft under it.
const (
	RequestIDHeader  = "X-Request-ID"
	ParentSpanHeader = "X-Parent-Span-ID"
)

// CampaignSpec is the JSON wire form of a faultsim.Campaign: exactly
// the identity-affecting fields plus the per-trial timeout.  Execution
// knobs that never enter cid:v3 (Workers, Pool, Budget, checkpoint and
// progress settings) deliberately do not cross the wire — each worker
// chooses its own trial concurrency, and the coordinator owns
// checkpointing of the merged result.
type CampaignSpec struct {
	App              string  `json:"app"`
	Class            string  `json:"class,omitempty"`
	Procs            int     `json:"procs"`
	Trials           int     `json:"trials"`
	Errors           int     `json:"errors"`
	Region           int     `json:"region"`
	Seed             uint64  `json:"seed"`
	TimeoutNS        int64   `json:"timeout_ns,omitempty"`
	ContaminationTol float64 `json:"contamination_tol,omitempty"`
	MaxAbnormal      int     `json:"max_abnormal,omitempty"`
	AbnormalRetries  int     `json:"abnormal_retries,omitempty"`
}

// SpecOf captures a campaign's wire form.  The campaign is normalized
// first so both sides derive the same cid:v3 identity from the spec.
func SpecOf(c faultsim.Campaign) CampaignSpec {
	c = c.Normalized()
	return CampaignSpec{
		App:              c.App.Name(),
		Class:            c.Class,
		Procs:            c.Procs,
		Trials:           c.Trials,
		Errors:           c.Errors,
		Region:           int(c.Region),
		Seed:             c.Seed,
		TimeoutNS:        int64(c.Timeout),
		ContaminationTol: c.ContaminationTol,
		MaxAbnormal:      c.MaxAbnormal,
		AbnormalRetries:  c.AbnormalRetries,
	}
}

// Campaign reconstructs the executable campaign from the wire form,
// resolving the app by name in the receiving process's registry.
func (s CampaignSpec) Campaign() (faultsim.Campaign, error) {
	app, err := apps.Lookup(s.App)
	if err != nil {
		return faultsim.Campaign{}, fmt.Errorf("dist: %w", err)
	}
	return faultsim.Campaign{
		App:              app,
		Class:            s.Class,
		Procs:            s.Procs,
		Trials:           s.Trials,
		Errors:           s.Errors,
		Region:           faultsim.RegionMode(s.Region),
		Seed:             s.Seed,
		Timeout:          time.Duration(s.TimeoutNS),
		ContaminationTol: s.ContaminationTol,
		MaxAbnormal:      s.MaxAbnormal,
		AbnormalRetries:  s.AbnormalRetries,
	}, nil
}

// ShardRequest is the coordinator→worker dispatch payload: one
// contiguous trial range of one campaign, plus the observability the
// coordinator wants back.  Trace and Progress are observation-only —
// they never reach the campaign identity or the RNG streams.
type ShardRequest struct {
	Campaign CampaignSpec `json:"campaign"`
	Start    int          `json:"start"`
	End      int          `json:"end"`
	// Trace asks the worker to run the shard under its own tracer and
	// return the serialized spans in ShardResponse.Trace.
	Trace bool `json:"trace,omitempty"`
	// Progress asks the worker to stream the shard's live tallies ahead
	// of the result, as progress frames on the same response.
	Progress bool `json:"progress,omitempty"`
}

// ShardResponse is one frame of the worker's reply.  The reply is a
// stream of newline-terminated JSON values on the dispatch's own
// connection: zero or more progress frames (Progress only, sent when the
// request asked for them), then exactly one terminal frame carrying
// either Result — the shard's partial tallies, plus the worker-side spans
// when the request asked for a trace, which the coordinator grafts under
// its dispatch span — or Error.  A reply without progress is a one-frame
// stream, i.e. a single JSON object.
type ShardResponse struct {
	Worker    string                `json:"worker,omitempty"`
	Result    *faultsim.ShardResult `json:"result,omitempty"`
	ElapsedNS int64                 `json:"elapsed_ns,omitempty"`
	Trace     []telemetry.SpanView  `json:"trace,omitempty"`
	// Progress is the in-flight tally of the dispatched range.
	Progress *faultsim.ShardStatus `json:"progress,omitempty"`
	// Error is the shard's failure (golden or trial run), in-band because
	// the status line is long gone once a progress frame has been sent.
	Error string `json:"error,omitempty"`
}

// readShardStream reads one dispatch's reply off r: it hands every
// progress frame to onProgress and returns the terminal result frame.
// Frames come from another machine, so each progress frame is validated
// against the dispatched chunk — it must cover exactly that range, count
// no more trials than the range holds, and its outcome counts must sum to
// Done — and the result must be of that range (what is inside it is
// Merger.Merge's to judge).  An invalid or empty frame, an error frame
// and a stream that ends before its terminal frame are all dispatch
// failures.
func readShardStream(r io.Reader, chunk [2]int, onProgress faultsim.ShardObserver) (*ShardResponse, error) {
	size := uint64(chunk[1] - chunk[0])
	dec := json.NewDecoder(r)
	for {
		var f ShardResponse
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("dist: shard stream: %w", err)
		}
		switch {
		case f.Error != "":
			return nil, fmt.Errorf("dist: shard failed on worker: %s", f.Error)
		case f.Result != nil:
			if f.Result.Start != chunk[0] || f.Result.End != chunk[1] {
				return nil, fmt.Errorf("dist: worker returned shard [%d,%d), dispatched [%d,%d)",
					f.Result.Start, f.Result.End, chunk[0], chunk[1])
			}
			return &f, nil
		case f.Progress == nil:
			return nil, errors.New("dist: worker returned no shard result")
		}
		st := *f.Progress
		// Bounding each count by the range first keeps the sum from
		// wrapping around to a plausible Done.
		if st.Start != chunk[0] || st.End != chunk[1] || st.Done > size ||
			st.Success > size || st.SDC > size || st.Failure > size || st.Abnormal > size-st.Done ||
			st.Success+st.SDC+st.Failure != st.Done {
			return nil, fmt.Errorf("dist: invalid progress frame %+v for shard [%d,%d)", st, chunk[0], chunk[1])
		}
		onProgress(st)
	}
}

// WorkerStats is the self-reported counter snapshot a worker piggybacks
// on every heartbeat; the coordinator aggregates these into the
// resmod_fleet_* metric families and /v1/cluster.
type WorkerStats struct {
	ShardsDone     uint64 `json:"shards_done"`
	ShardsFailed   uint64 `json:"shards_failed"`
	ShardsInflight uint64 `json:"shards_inflight"`
	TrialsDone     uint64 `json:"trials_done"`
	GoldenHits     uint64 `json:"golden_hits"`
	GoldenMisses   uint64 `json:"golden_misses"`
}

// registerRequest / registerResponse / heartbeatRequest are the worker
// control-plane payloads.
type registerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

type registerResponse struct {
	ID string `json:"id"`
}

type heartbeatRequest struct {
	ID string `json:"id"`
	// Stats piggybacks the worker's counter snapshot (nil from pre-PR 8
	// workers — the coordinator then has liveness but no detail).
	Stats *WorkerStats `json:"stats,omitempty"`
}

// errorResponse mirrors the server package's error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
