package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resmod/internal/faultsim"
	"resmod/internal/telemetry"
)

// Coordinator defaults.
const (
	// DefaultHeartbeatTimeout is how long a worker may go without a
	// heartbeat before the coordinator declares it dead.
	DefaultHeartbeatTimeout = 5 * time.Second
	// DefaultShardsPerWorker is how many chunks per alive worker the
	// trial range is cut into — over-decomposition, so that losing a
	// worker forfeits only a fraction of its assignment and faster
	// workers naturally steal more chunks.
	DefaultShardsPerWorker = 4
	// DefaultMinShard is the smallest chunk worth a network round trip.
	DefaultMinShard = 8
	// DefaultRetireMultiple sets the default roster-retirement horizon as
	// a multiple of the heartbeat timeout: a worker silent this long is
	// not "briefly partitioned", it is gone, and keeping it would grow
	// the /v1/workers roster and the per-worker /metrics series without
	// bound as workers churn.
	DefaultRetireMultiple = 12
)

// PoolConfig configures the coordinator's worker pool.
type PoolConfig struct {
	// HeartbeatTimeout declares a silent worker dead (default
	// DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// ShardsPerWorker is the over-decomposition factor (default
	// DefaultShardsPerWorker).
	ShardsPerWorker int
	// MinShard is the minimum trials per chunk (default DefaultMinShard).
	MinShard int
	// RetireAfter removes a worker from the roster entirely once its
	// heartbeat has been stale this long (default DefaultRetireMultiple ×
	// HeartbeatTimeout) — its labeled /metrics series and /v1/workers
	// entry disappear instead of accumulating forever.  A retired worker
	// that comes back simply re-registers.
	RetireAfter time.Duration
}

// Pool is the coordinator's worker registry and shard dispatcher.  It
// implements the exper.Config.Distribute contract: given a campaign and
// its golden, cut [0, Trials) into chunks, dispatch them to alive
// workers over HTTP, requeue the chunks of workers that die mid-flight
// onto survivors, and finish any remainder locally so a campaign
// admitted to the distributed path always completes (or fails
// deterministically).
type Pool struct {
	cfg    PoolConfig
	client *http.Client

	mu      sync.Mutex
	seq     int
	workers map[string]*poolWorker

	campaigns        atomic.Uint64
	heartbeats       atomic.Uint64
	shardsDispatched atomic.Uint64
	shardsCompleted  atomic.Uint64
	shardsRequeued   atomic.Uint64
	shardsLocal      atomic.Uint64
	progressReports  atomic.Uint64
}

// poolWorker is one registered execution node.
type poolWorker struct {
	id         string
	name       string
	url        string
	registered time.Time

	mu       sync.Mutex
	lastSeen time.Time
	done     uint64
	failed   uint64
	// stats is the worker's self-reported snapshot from its latest
	// heartbeat (nil until one arrives); rate is trials/sec derived from
	// consecutive snapshots.
	stats      *WorkerStats
	statsAt    time.Time
	prevTrials uint64
	rate       float64
}

func (w *poolWorker) aliveAt(now time.Time, timeout time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return now.Sub(w.lastSeen) <= timeout
}

// NewPool returns an empty coordinator pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.ShardsPerWorker <= 0 {
		cfg.ShardsPerWorker = DefaultShardsPerWorker
	}
	if cfg.MinShard <= 0 {
		cfg.MinShard = DefaultMinShard
	}
	if cfg.RetireAfter <= 0 {
		cfg.RetireAfter = DefaultRetireMultiple * cfg.HeartbeatTimeout
	}
	return &Pool{
		cfg: cfg,
		// Shards run for as long as their trials take: the dispatch
		// request must not carry a client-side timeout — cancellation is
		// the context's (and the heartbeat watchdog's) job.
		client:  &http.Client{},
		workers: make(map[string]*poolWorker),
	}
}

// Register adds (or replaces, keyed by callback URL) a worker and
// returns its assigned id.  A fresh registration counts as a heartbeat.
func (p *Pool) Register(name, url string) string {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, wk := range p.workers {
		if wk.url == url {
			// A restarted worker re-registers at the same URL; the stale
			// entry would otherwise linger as a phantom until timeout.
			delete(p.workers, id)
		}
	}
	p.seq++
	id := fmt.Sprintf("w%d", p.seq)
	wk := &poolWorker{id: id, name: name, url: url, registered: now, lastSeen: now}
	p.workers[id] = wk
	return id
}

// Heartbeat refreshes a worker's liveness and folds in its piggybacked
// counter snapshot (nil from workers that report none); false means the
// id is unknown (e.g. the coordinator restarted) and the worker must
// re-register.
func (p *Pool) Heartbeat(id string, st *WorkerStats) bool {
	p.mu.Lock()
	wk := p.workers[id]
	p.mu.Unlock()
	if wk == nil {
		return false
	}
	now := time.Now()
	wk.mu.Lock()
	wk.lastSeen = now
	if st != nil {
		if !wk.statsAt.IsZero() && st.TrialsDone >= wk.prevTrials {
			if dt := now.Sub(wk.statsAt).Seconds(); dt > 0 {
				wk.rate = float64(st.TrialsDone-wk.prevTrials) / dt
			}
		}
		wk.prevTrials = st.TrialsDone
		wk.statsAt = now
		cp := *st
		wk.stats = &cp
	}
	wk.mu.Unlock()
	p.heartbeats.Add(1)
	return true
}

// pruneLocked retires workers whose heartbeat has been stale past
// RetireAfter, so long-dead nodes stop occupying the roster (and their
// labeled metric series stop being emitted).  Callers hold p.mu.
func (p *Pool) pruneLocked(now time.Time) {
	for id, wk := range p.workers {
		wk.mu.Lock()
		stale := now.Sub(wk.lastSeen) > p.cfg.RetireAfter
		wk.mu.Unlock()
		if stale {
			delete(p.workers, id)
		}
	}
}

// alive snapshots the workers whose heartbeat is fresh.
func (p *Pool) alive() []*poolWorker {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	var out []*poolWorker
	for _, wk := range p.workers {
		if wk.aliveAt(now, p.cfg.HeartbeatTimeout) {
			out = append(out, wk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// WorkerInfo is the /v1/workers and /v1/cluster JSON view of one
// registered worker.  ShardsDone/ShardsFailed are this coordinator's
// view of its own dispatches; Stats is the worker's self-reported
// lifetime snapshot from its latest heartbeat.
type WorkerInfo struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	URL          string `json:"url"`
	Alive        bool   `json:"alive"`
	LastSeenMS   int64  `json:"last_seen_ms"`
	ShardsDone   uint64 `json:"shards_done"`
	ShardsFailed uint64 `json:"shards_failed"`
	// TrialsPerSec is derived from consecutive heartbeat snapshots (0
	// until two arrive).
	TrialsPerSec float64 `json:"trials_per_sec"`
	// Stats is nil until the worker's first stats-bearing heartbeat.
	Stats *WorkerStats `json:"worker_stats,omitempty"`
}

// Workers lists every registered worker, alive or not, id-ordered.
func (p *Pool) Workers() []WorkerInfo {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, wk := range p.workers {
		wk.mu.Lock()
		info := WorkerInfo{
			ID:           wk.id,
			Name:         wk.name,
			URL:          wk.url,
			Alive:        now.Sub(wk.lastSeen) <= p.cfg.HeartbeatTimeout,
			LastSeenMS:   now.Sub(wk.lastSeen).Milliseconds(),
			ShardsDone:   wk.done,
			ShardsFailed: wk.failed,
			TrialsPerSec: wk.rate,
		}
		if wk.stats != nil {
			cp := *wk.stats
			info.Stats = &cp
		}
		wk.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PoolStats is a snapshot of the roster size and the pool counters.
type PoolStats struct {
	WorkersKnown     int
	WorkersAlive     int
	Heartbeats       uint64
	Campaigns        uint64
	ShardsDispatched uint64
	ShardsCompleted  uint64
	ShardsRequeued   uint64
	ShardsLocal      uint64
	// ProgressReports counts the progress frames accepted off shard
	// responses.
	ProgressReports uint64
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	alive := len(p.alive())
	p.mu.Lock()
	known := len(p.workers)
	p.mu.Unlock()
	return PoolStats{
		WorkersKnown:     known,
		WorkersAlive:     alive,
		Heartbeats:       p.heartbeats.Load(),
		Campaigns:        p.campaigns.Load(),
		ShardsDispatched: p.shardsDispatched.Load(),
		ShardsCompleted:  p.shardsCompleted.Load(),
		ShardsRequeued:   p.shardsRequeued.Load(),
		ShardsLocal:      p.shardsLocal.Load(),
		ProgressReports:  p.progressReports.Load(),
	}
}

// RegisterMetrics declares the coordinator's families on reg: the pool
// counters (resmod_dist_*) and the fleet view (resmod_fleet_*), one
// labelled series per rostered worker keyed by its registered name.  A
// worker the pool retires simply stops being reported.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	known := telemetry.Value(func() int { return p.Stats().WorkersKnown })
	alive := telemetry.Value(func() int { return p.Stats().WorkersAlive })
	reg.GaugeFunc("resmod_dist_workers_known", "Workers ever registered with this coordinator.", known)
	reg.GaugeFunc("resmod_dist_workers_alive", "Registered workers with a fresh heartbeat.", alive)
	reg.GaugeFunc("resmod_fleet_workers_known", "Workers ever registered with this coordinator (fleet view).", known)
	reg.GaugeFunc("resmod_fleet_workers_alive", "Registered workers with a fresh heartbeat (fleet view).", alive)
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"resmod_dist_heartbeats_total", "Worker heartbeats accepted.", &p.heartbeats},
		{"resmod_dist_campaigns_total", "Campaigns routed through the distributed pool.", &p.campaigns},
		{"resmod_dist_shards_dispatched_total", "Shard dispatches attempted (includes re-dispatches).", &p.shardsDispatched},
		{"resmod_dist_shards_completed_total", "Shards completed by workers and merged.", &p.shardsCompleted},
		{"resmod_dist_shards_requeued_total", "Shards requeued after a worker died or answered garbage.", &p.shardsRequeued},
		{"resmod_dist_shards_local_total", "Shards the coordinator finished locally after worker loss.", &p.shardsLocal},
		{"resmod_fleet_progress_reports_total", "In-flight shard progress reports accepted from workers.", &p.progressReports},
	} {
		reg.CounterFunc(c.name, c.help, telemetry.Value(c.v.Load))
	}

	registerWorkerFamilies(reg, p.Workers)
}

// registerWorkerFamilies declares the per-worker fleet families over one
// roster snapshot per registry pass: the pass's Emitter names the scrape,
// its first family takes the snapshot and its last drops it, so a scrape
// copies and sorts the roster once and every family reports the same
// instant, even while other scrapes run.  A pass that runs only some of
// the families (the retention sampler's) reads the roster afresh.
func registerWorkerFamilies(reg *telemetry.Registry, roster func() []WorkerInfo) {
	var (
		mu     sync.Mutex
		passes = map[*telemetry.Emitter][]WorkerInfo{} // the snapshots of the passes in flight
		nfams  int
	)
	family := func(emit func(e *telemetry.Emitter, wi WorkerInfo)) func(*telemetry.Emitter) {
		i := nfams
		nfams++
		return func(e *telemetry.Emitter) {
			mu.Lock()
			ws, ok := passes[e]
			if i == nfams-1 {
				delete(passes, e)
			}
			mu.Unlock()
			if i == 0 || !ok {
				ws = roster()
			}
			if i == 0 {
				mu.Lock()
				passes[e] = ws
				mu.Unlock()
			}
			for _, wi := range ws {
				emit(e, wi)
			}
		}
	}
	perWorker := func(read func(wi WorkerInfo) float64) func(*telemetry.Emitter) {
		return family(func(e *telemetry.Emitter, wi WorkerInfo) { e.Add(read(wi), "worker", wi.Name) })
	}
	// Self-reported families skip a worker until its first stats-bearing
	// heartbeat.
	selfReported := func(read func(st *WorkerStats) uint64) func(*telemetry.Emitter) {
		return family(func(e *telemetry.Emitter, wi WorkerInfo) {
			if wi.Stats != nil {
				e.Add(float64(read(wi.Stats)), "worker", wi.Name)
			}
		})
	}
	reg.GaugeFunc("resmod_fleet_worker_up", "Whether the worker's heartbeat is fresh (1) or stale (0).",
		perWorker(func(wi WorkerInfo) float64 {
			if wi.Alive {
				return 1
			}
			return 0
		}))
	// LastSeenMS is already an age, sampled when the list was built.
	reg.GaugeFunc("resmod_fleet_worker_heartbeat_age_seconds", "Seconds since the worker's last heartbeat.",
		perWorker(func(wi WorkerInfo) float64 { return float64(wi.LastSeenMS) / 1000 }))
	reg.GaugeFunc("resmod_fleet_worker_trials_per_second", "Trial throughput derived from consecutive heartbeat snapshots.",
		perWorker(func(wi WorkerInfo) float64 { return wi.TrialsPerSec }))
	reg.CounterFunc("resmod_fleet_worker_shards_done_total", "Shards this worker completed (coordinator's count).",
		perWorker(func(wi WorkerInfo) float64 { return float64(wi.ShardsDone) }))
	reg.CounterFunc("resmod_fleet_worker_shards_failed_total", "Shard dispatches to this worker that errored (coordinator's count).",
		perWorker(func(wi WorkerInfo) float64 { return float64(wi.ShardsFailed) }))
	reg.CounterFunc("resmod_fleet_worker_trials_done_total", "Trials the worker reports having executed.",
		selfReported(func(st *WorkerStats) uint64 { return st.TrialsDone }))
	reg.GaugeFunc("resmod_fleet_worker_shards_inflight", "Shards the worker reports currently executing.",
		selfReported(func(st *WorkerStats) uint64 { return st.ShardsInflight }))
	reg.CounterFunc("resmod_fleet_worker_golden_cache_hits_total", "Golden-run cache hits the worker reports.",
		selfReported(func(st *WorkerStats) uint64 { return st.GoldenHits }))
	reg.CounterFunc("resmod_fleet_worker_golden_cache_misses_total", "Golden-run cache misses the worker reports.",
		selfReported(func(st *WorkerStats) uint64 { return st.GoldenMisses }))
}

// chunk is one contiguous trial range on the campaign's work list, with
// the number of dispatches of it that have failed so far.
type chunk struct {
	r        [2]int
	failures int
}

// chunkQueue is the campaign's work list: chunks pop in range order,
// failed dispatches requeue, and an exceeded abnormal budget closes the
// queue so no further trials burn.  A chunk that has failed on two
// workers is the suspect, not they: it stays listed, but only the local
// tail will take it.
type chunkQueue struct {
	mu     sync.Mutex
	chunks []chunk
	closed bool
}

func (q *chunkQueue) pop(local bool) (chunk, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return chunk{}, false
	}
	for i, c := range q.chunks {
		if local || c.failures < 2 {
			q.chunks = slices.Delete(q.chunks, i, i+1)
			return c, true
		}
	}
	return chunk{}, false
}

// requeue puts back a chunk whose dispatch failed and reports whether
// the worker that failed it should sit out the rest of the campaign —
// true for a chunk's first failure, false once the chunk is the suspect.
func (q *chunkQueue) requeue(c chunk) (bench bool) {
	c.failures++
	q.mu.Lock()
	q.chunks = append(q.chunks, c)
	q.mu.Unlock()
	return c.failures == 1
}

func (q *chunkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// shardRanges cuts [0, trials) into at most parts contiguous chunks of
// at least minShard trials each (the final chunk absorbs the
// remainder's tail).
func shardRanges(trials, parts, minShard int) []chunk {
	if parts < 1 {
		parts = 1
	}
	size := (trials + parts - 1) / parts
	if size < minShard {
		size = minShard
	}
	var out []chunk
	for start := 0; start < trials; start += size {
		out = append(out, chunk{r: [2]int{start, min(start+size, trials)}})
	}
	return out
}

// Distribute runs the campaign across the registered workers.  The
// second return is false when no worker is alive — the caller's cue to
// fall back to plain local execution.  Once handled, the campaign
// always resolves here: chunks of workers that die re-dispatch to
// survivors, and whatever remains when the last worker is gone runs
// locally through the same shard engine, so the merged Summary is
// bit-identical to a single-node run regardless of the loss history.
func (p *Pool) Distribute(ctx context.Context, c faultsim.Campaign, golden *faultsim.Golden) (*faultsim.Summary, bool, error) {
	if c.Trials < 1 {
		return nil, false, nil
	}
	alive := p.alive()
	if len(alive) == 0 {
		return nil, false, nil
	}
	p.campaigns.Add(1)
	c = c.Normalized()
	tel := telemetry.From(ctx)
	reqID := telemetry.RequestID(ctx)
	ctx, span := tel.Tracer().Start(ctx, "distribute",
		telemetry.String("id", c.Identity()),
		telemetry.Int("workers", len(alive)))
	defer span.End()
	log := tel.Logger()

	m := faultsim.NewMerger(c, golden)
	spec := SpecOf(c)
	queue := &chunkQueue{chunks: shardRanges(c.Trials, len(alive)*p.cfg.ShardsPerWorker, p.cfg.MinShard)}
	log.Info("distributing campaign", "id", c.Identity(),
		"trials", c.Trials, "workers", len(alive), "chunks", len(queue.chunks))

	// Live progress (nil when the context carries no bus): every chunk's
	// runner reports in-flight tallies through the observer it is handed,
	// merged chunks settle into the Merger, and the combined view feeds
	// the same events a local run publishes.
	dp := newDistProgress(tel.Progress(), c.Identity(), c.Trials, m)
	dp.publish(telemetry.StateRunning)

	// drain is the campaign's one pop–run–merge loop, run by every
	// per-worker dispatcher and by the local tail.  It returns the zero
	// chunk once the queue is empty or closed, or the first chunk whose
	// run or merge failed with that error — what a failure costs is the
	// caller's policy.
	type runner func(r [2]int, obs faultsim.ShardObserver) (*faultsim.ShardResult, error)
	drain := func(local bool, run runner, merged func(r [2]int)) (chunk, error) {
		for {
			ck, ok := queue.pop(local)
			if !ok {
				return chunk{}, nil
			}
			res, err := run(ck.r, dp.observe(ck.r))
			dp.release(ck.r)
			if err == nil {
				// A result that does not merge is a protocol bug or a
				// hostile worker; it fails the chunk like a failed run.
				err = m.Merge(res)
			}
			if err != nil {
				return ck, err
			}
			dp.publish(telemetry.StateRunning)
			merged(ck.r)
			if m.AbnormalExceeded() {
				queue.close()
			}
		}
	}

	var wg sync.WaitGroup
	for _, wk := range alive {
		wg.Add(1)
		go func(wk *poolWorker) {
			defer wg.Done()
			run := func(r [2]int, obs faultsim.ShardObserver) (*faultsim.ShardResult, error) {
				return p.dispatch(ctx, tel, wk, spec, r, obs, reqID)
			}
			merged := func([2]int) {
				p.shardsCompleted.Add(1)
				wk.mu.Lock()
				wk.done++
				wk.mu.Unlock()
			}
			for {
				ck, err := drain(false, run, merged)
				if err == nil {
					return
				}
				// The chunk goes back for survivors (or the local tail),
				// and this worker sits out the rest of the campaign until
				// its heartbeats prove it back — unless the chunk has now
				// failed on two workers, which makes the chunk the suspect.
				bench := queue.requeue(ck)
				p.shardsRequeued.Add(1)
				wk.mu.Lock()
				wk.failed++
				wk.mu.Unlock()
				log.Warn("shard dispatch failed, requeued", "worker", wk.id,
					"start", ck.r[0], "end", ck.r[1], "benched", bench, "err", err)
				if bench {
					return
				}
			}
		}(wk)
	}
	wg.Wait()

	// Whatever the dead left behind runs locally through the same shard
	// engine — same per-trial RNG streams, so still bit-identical.  Here
	// a failure has no one left to retry it: it fails the campaign.
	ck, err := drain(true,
		func(r [2]int, obs faultsim.ShardObserver) (*faultsim.ShardResult, error) {
			return faultsim.RunShardCtx(faultsim.WithShardObserver(ctx, obs), c, golden, r[0], r[1])
		},
		func(r [2]int) {
			p.shardsLocal.Add(1)
			log.Info("completed shard locally", "start", r[0], "end", r[1])
		})
	var sum *faultsim.Summary
	if err != nil {
		err = fmt.Errorf("dist: local completion of [%d,%d): %w", ck.r[0], ck.r[1], err)
	} else {
		sum, err = m.Summary()
	}
	dp.finish(err, err != nil && ctx.Err() != nil)
	if err != nil {
		return nil, true, err
	}
	span.SetAttr(telemetry.Attr{Key: "trials_done", Value: m.Done()})
	return sum, true, nil
}

// dispatch POSTs one chunk to one worker and reads the shard's reply
// stream: progress frames go to obs (nil asks the worker for none) and
// the terminal frame's result is returned.  A watchdog cancels the
// in-flight request if the worker's heartbeat goes stale — a killed node
// whose TCP connection does not reset still only delays the campaign by
// the heartbeat timeout.
//
// Observability: the dispatch runs under its own span whose ID (and the
// job's request ID) travel as headers; when tracing is on, the worker's
// returned spans graft under that span tagged with the worker identity,
// anchored at the dispatch instant — the job trace then shows the true
// cross-fleet timeline.
func (p *Pool) dispatch(ctx context.Context, tel *telemetry.Telemetry, wk *poolWorker, spec CampaignSpec, r [2]int, obs faultsim.ShardObserver, reqID string) (*faultsim.ShardResult, error) {
	p.shardsDispatched.Add(1)
	tr := tel.Tracer()
	dispatchedAt := time.Now()
	_, dspan := tr.Start(ctx, "dispatch",
		telemetry.String("worker", wk.id),
		telemetry.String("worker_name", wk.name),
		telemetry.Int("start", r[0]), telemetry.Int("end", r[1]))
	defer dspan.End()
	body, err := json.Marshal(ShardRequest{Campaign: spec, Start: r[0], End: r[1], Trace: tr != nil, Progress: obs != nil})
	if err != nil {
		return nil, err
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel() // also what ends the watchdog
	go func() {
		tick := time.NewTicker(p.cfg.HeartbeatTimeout / 4)
		defer tick.Stop()
		for {
			select {
			case <-reqCtx.Done():
				return
			case now := <-tick.C:
				if !wk.aliveAt(now, p.cfg.HeartbeatTimeout) {
					cancel()
					return
				}
			}
		}
	}()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, wk.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(RequestIDHeader, reqID)
	}
	if id := dspan.ID(); id != 0 {
		req.Header.Set(ParentSpanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("dist: worker %s: %s: %s", wk.id, resp.Status, bytes.TrimSpace(msg))
	}
	sr, err := readShardStream(resp.Body, r, func(st faultsim.ShardStatus) {
		if obs != nil { // frames nobody asked for are checked, then dropped
			p.progressReports.Add(1)
			obs(st)
		}
	})
	if err != nil {
		return nil, err
	}
	if len(sr.Trace) > 0 {
		tr.Graft(sr.Trace, dspan, dispatchedAt,
			telemetry.String("worker", wk.id),
			telemetry.String("worker_name", wk.name))
	}
	return sr.Result, nil
}
