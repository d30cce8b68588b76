package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"resmod/internal/apps"
	"resmod/internal/core"
	"resmod/internal/dist"
	"resmod/internal/exper"
	"resmod/internal/faultsim"
	"resmod/internal/telemetry"

	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
)

// Frozen sizes of the engine workloads (calibrated once on the 2-core
// reference host so one pass takes 1.5–3 s; see README.md).
const (
	predictSmall  = 4
	predictLarge  = 16
	predictTrials = 16
	wideProcs     = 64
	wideTrials    = 20
	// warmTrials sizes the set-up pass: every golden run and every pooled
	// structure of the real pass, with almost no injected trials.
	warmTrials = 2
)

// distributeFunc is exper.Config.Distribute.
type distributeFunc = func(context.Context, faultsim.Campaign, *faultsim.Golden) (*faultsim.Summary, bool, error)

// engineOpts are the scheduler knobs of one engine pass; the zero value is
// the program's defaults (GOMAXPROCS workers and campaign slots).
type engineOpts struct {
	workers          int
	campaignParallel int
}

// campaignLog gathers what exper.Config.OnCampaign reports during a pass:
// the deterministic record of every executed campaign and the per-class
// sums of their own Elapsed times.
type campaignLog struct {
	mu      sync.Mutex
	records map[string]string
	layer   map[string]float64
	trials  uint64
	bad     []string
}

func newCampaignLog() *campaignLog {
	return &campaignLog{records: map[string]string{}, layer: map[string]float64{}}
}

// campaignClass names the role a campaign plays in the paper's §4
// pipeline, read off its identity (cid:v1/app/class/p<procs>/t…/e…/r<region>/…).
func campaignClass(identity string, small int) string {
	procs, region := -1, -1
	if seg := strings.Split(identity, "/"); len(seg) > 6 {
		fmt.Sscanf(seg[3], "p%d", &procs)
		fmt.Sscanf(seg[6], "r%d", &region)
	}
	switch {
	case faultsim.RegionMode(region) == faultsim.UniqueOnly:
		return "unique"
	case procs == 1:
		return "serial"
	case procs == small:
		return "small"
	default:
		return "large"
	}
}

func (l *campaignLog) observe(small, wantTrials int) func(string, *faultsim.Summary) {
	return func(id string, sum *faultsim.Summary) {
		rec := sum.Record(id)
		l.mu.Lock()
		defer l.mu.Unlock()
		switch {
		case rec == nil:
			l.bad = append(l.bad, id+": interrupted")
		case sum.TrialsDone != uint64(wantTrials) || sum.Abnormal != 0:
			l.bad = append(l.bad, fmt.Sprintf("%s: %d/%d trials, %d abnormal", id, sum.TrialsDone, wantTrials, sum.Abnormal))
		case math.Abs(sum.Rates.Success+sum.Rates.SDC+sum.Rates.Failure-1) > 1e-9:
			l.bad = append(l.bad, id+": rates do not sum to 1")
		}
		if rec != nil {
			rec.ElapsedNS = 0 // wall time is the one nondeterministic field
			b, _ := json.Marshal(rec)
			l.records[id] = string(b)
		}
		l.trials += sum.TrialsDone
		l.layer["faultsim."+campaignClass(id, small)+"_campaign_s"] += sum.Elapsed.Seconds()
		l.layer["faultsim.campaigns_executed"]++
		l.layer["faultsim.abnormal_trials"] += float64(sum.Abnormal)
	}
}

// digest hashes the pass's deterministic outputs: the prediction rows
// (time fields zeroed) and every campaign record in identity order.
func (l *campaignLog) digest(rows []exper.PredictionRow) string {
	h := sha256.New()
	for _, r := range rows {
		r.SmallTime, r.SerialTime = 0, 0
		b, _ := json.Marshal(r)
		h.Write(b)
	}
	ids := make([]string, 0, len(l.records))
	for id := range l.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h.Write([]byte(l.records[id]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newSession builds the fresh, cache-less session every engine pass runs
// on, with the traced run's telemetry (when any) on its context.
func newSession(ctx context.Context, seed uint64, trials, small int, o engineOpts, d distributeFunc, log *campaignLog) *exper.Session {
	return exper.NewSession(exper.Config{
		Trials: trials, Seed: seed, Ctx: ctx,
		Workers: o.workers, CampaignParallel: o.campaignParallel,
		Distribute: d,
		OnCampaign: log.observe(small, trials),
	})
}

// predictPass is one run of the paper's Fig. 5 pipeline over the six
// paper apps on a fresh session, checked against the closed-form campaign
// and trial counts.
func predictPass(ctx context.Context, tel *benchTel, seed uint64, trials int, o engineOpts, d distributeFunc) (passResult, error) {
	log := newCampaignLog()
	ctx, span := tel.span(ctx, "bench_call", telemetry.String("call", "exper.PredictAll"))
	s := newSession(ctx, seed, trials, predictSmall, o, d, log)
	start, cpu0 := time.Now(), cpuTime()
	rows, err := exper.PredictAll(s, exper.PaperBenchmarks, predictSmall, predictLarge)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	span.End()
	if err != nil {
		return passResult{}, err
	}

	// Closed form: per app the sampled serial points, the small profile
	// and the measured large campaign, plus the unique-region campaign
	// exactly when the large golden has parallel-unique work.
	xs, err := core.SampleXs(predictLarge, predictSmall)
	if err != nil {
		return passResult{}, err
	}
	wantCampaigns, requested := 0, 0
	var goldenOps uint64
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			return passResult{}, err
		}
		wantCampaigns += len(xs) + 2
		requested += len(xs) + 3
		for _, p := range []int{1, predictSmall, predictLarge} {
			g, err := s.Golden(app, "", p)
			if err != nil {
				return passResult{}, err
			}
			goldenOps += g.TotalCounts().Total()
			if p == predictLarge && g.UniqueFraction() > 0 {
				wantCampaigns++
			}
		}
	}
	res := passResult{wall: wall, cpu: cpu, ops: int(log.trials), calls: []time.Duration{wall},
		digest: log.digest(rows), layer: log.layer}
	res.layer["fpe.golden_ops"] = float64(goldenOps)
	res.layer["faultsim.trials_executed"] = float64(log.trials)
	res.layer["exper.campaigns_shared"] = float64(requested - len(log.records))
	bad := log.bad
	if len(rows) != len(exper.PaperBenchmarks) {
		bad = append(bad, fmt.Sprintf("%d prediction rows, want %d", len(rows), len(exper.PaperBenchmarks)))
	}
	if len(log.records) != wantCampaigns || log.trials != uint64(wantCampaigns*trials) {
		bad = append(bad, fmt.Sprintf("executed %d campaigns / %d trials, closed form says %d / %d",
			len(log.records), log.trials, wantCampaigns, wantCampaigns*trials))
	}
	if len(bad) > 0 {
		res.failed = 1
		fmt.Fprintf(stderr, "check failed: %s\n", strings.Join(bad, "; "))
	}
	return res, nil
}

// predictInstance is predict_paper, and with a fleet dist_shard: exactly
// the same inputs, campaigns sharded over in-process workers.
type predictInstance struct {
	rc    runConfig
	dist  bool
	fleet *fleet
	// reference holds, by pass seed, the digest of a local (undistributed)
	// pass, which dist_shard's pass on that seed must equal.
	reference map[uint64]string
	localWall time.Duration
}

func (p *predictInstance) distribute() distributeFunc {
	if p.fleet == nil {
		return nil
	}
	return p.fleet.pool.Distribute
}

func (p *predictInstance) Setup(ctx context.Context) error {
	if p.dist {
		f, err := startFleet(ctx, 2, max(1, runtime.NumCPU()/2))
		if err != nil {
			return err
		}
		p.fleet = f
	}
	_, err := predictPass(ctx, nil, p.rc.seed, warmTrials, p.rc.scheduler(), p.distribute())
	return err
}

func (p *predictInstance) Pass(ctx context.Context, tel *benchTel, seed uint64) (passResult, error) {
	trials := p.rc.scale(predictTrials)
	if !p.dist {
		return predictPass(ctx, tel, seed, trials, p.rc.scheduler(), nil)
	}
	if len(p.reference) == 0 || tel != nil {
		// Run alone, dist_shard has no predict_paper digest to compare
		// with, so it runs the local reference itself, outside any timed
		// section: before its first pass, and before every traced pass, so
		// that dist.overhead_vs_local is a ratio of two passes on the same
		// inputs run back to back.
		ref, err := predictPass(ctx, nil, seed, trials, p.rc.scheduler(), nil)
		if err != nil {
			return passResult{}, fmt.Errorf("local reference: %w", err)
		}
		if p.reference == nil {
			p.reference = map[uint64]string{}
		}
		p.reference[seed], p.localWall = ref.digest, ref.wall
	}
	before, shardsBefore := p.fleet.pool.Stats(), p.fleet.shardsDone()
	res, err := predictPass(ctx, tel, seed, trials, p.rc.scheduler(), p.distribute())
	if err != nil {
		return res, err
	}
	after := p.fleet.pool.Stats()
	if ref, ok := p.reference[seed]; ok && res.digest != ref {
		res.failed = 1
		fmt.Fprintf(stderr, "check failed: distributed digest %s differs from local %s\n", res.digest, ref)
	}
	if after.ShardsCompleted == before.ShardsCompleted {
		res.failed = 1 // a silent local fallback must not pass
		fmt.Fprintln(stderr, "check failed: the pool completed no shard")
	}
	res.layer["dist.campaigns_distributed"] = float64(after.Campaigns - before.Campaigns)
	res.layer["dist.shards_completed"] = float64(after.ShardsCompleted - before.ShardsCompleted)
	res.layer["dist.shards_requeued"] = float64(after.ShardsRequeued - before.ShardsRequeued)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i, n := range p.fleet.shardsDone() {
		d := n - shardsBefore[i]
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo > 0 {
		res.layer["dist.worker_imbalance"] = float64(hi) / float64(lo)
	}
	res.layer["dist.local_pass_s"] = p.localWall.Seconds()
	res.layer["dist.overhead_vs_local"] = res.wall.Seconds() / p.localWall.Seconds()
	return res, nil
}

func (p *predictInstance) Close() {
	if p.fleet != nil {
		p.fleet.Close()
		p.fleet = nil
	}
}

// wideInstance is campaign_wide: one 1-error campaign per paper app at
// p = 64, one after another, so simmpi does most of the work.
type wideInstance struct{ rc runConfig }

func (w *wideInstance) Setup(ctx context.Context) error {
	_, err := w.pass(ctx, nil, w.rc.seed, warmTrials)
	return err
}

func (w *wideInstance) Pass(ctx context.Context, tel *benchTel, seed uint64) (passResult, error) {
	return w.pass(ctx, tel, seed, w.rc.scale(wideTrials))
}

func (w *wideInstance) pass(ctx context.Context, tel *benchTel, seed uint64, trials int) (passResult, error) {
	log := newCampaignLog()
	res := passResult{layer: log.layer}
	var goldenOps uint64
	start, cpu0 := time.Now(), cpuTime()
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			return res, err
		}
		// A session per call: the apps share nothing, and the session's
		// context is what parents the program's spans under this call's.
		cctx, span := tel.span(ctx, "bench_call", telemetry.String("call", "Session.Campaign"), telemetry.String("app", name))
		s := newSession(cctx, seed, trials, 0, w.rc.scheduler(), nil, log)
		t0 := time.Now()
		_, err = s.Campaign(app, "", wideProcs, 1, faultsim.AnyRegion)
		res.calls = append(res.calls, time.Since(t0))
		span.End()
		if err != nil {
			return res, err
		}
		g, err := s.Golden(app, "", wideProcs)
		if err != nil {
			return res, err
		}
		goldenOps += g.TotalCounts().Total()
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.ops = int(log.trials)
	res.digest = log.digest(nil)
	res.layer["fpe.golden_ops"] = float64(goldenOps)
	res.layer["faultsim.trials_executed"] = float64(log.trials)
	if want := len(exper.PaperBenchmarks); len(log.records) != want || log.trials != uint64(want*trials) {
		log.bad = append(log.bad, fmt.Sprintf("executed %d campaigns / %d trials, want %d / %d",
			len(log.records), log.trials, want, want*trials))
	}
	if len(log.bad) > 0 {
		res.failed = len(res.calls)
		fmt.Fprintf(stderr, "check failed: %s\n", strings.Join(log.bad, "; "))
	}
	return res, nil
}

func (w *wideInstance) Close() {}

// fleet is a coordinator pool with in-process workers over loopback HTTP.
type fleet struct {
	pool   *dist.Pool
	srv    *http.Server
	cancel context.CancelFunc
	done   sync.WaitGroup
}

// startFleet serves a default-config dist.Pool on a loopback listener,
// starts n workers against it and returns once all have registered.
func startFleet(ctx context.Context, n, workersEach int) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	f := &fleet{pool: dist.NewPool(dist.PoolConfig{}), cancel: cancel}
	f.srv = &http.Server{Handler: f.pool.Handler()}
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = f.srv.Serve(ln) // returns ErrServerClosed at Close
	}()
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(), Workers: workersEach,
			HeartbeatEvery: 100 * time.Millisecond,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			_ = w.Run(wctx) // nil on the context-driven shutdown
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.pool.Stats().WorkersAlive < n {
		if time.Now().After(deadline) {
			f.Close()
			return nil, errors.New("fleet: workers failed to register within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return f, nil
}

// shardsDone lists, in worker-id order, how many shards each worker has
// completed so far.
func (f *fleet) shardsDone() []uint64 {
	var out []uint64
	for _, w := range f.pool.Workers() {
		out = append(out, w.ShardsDone)
	}
	return out
}

// Close stops the workers and the coordinator listener and waits for
// every goroutine the fleet started.
func (f *fleet) Close() {
	f.cancel()
	_ = f.srv.Close()
	f.done.Wait()
}
