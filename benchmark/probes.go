package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"resmod/internal/apps"
	"resmod/internal/core"
	"resmod/internal/dist"
	"resmod/internal/exper"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/server"
	"resmod/internal/simmpi"
	"resmod/internal/stats"
	"resmod/internal/store"
	"resmod/internal/telemetry"
)

// probeRepeats is how often each probe's fixed-iteration loop runs; the
// reported value is the median of the repeats.
const probeRepeats = 5

// probeSink keeps the compiler from discarding probe results.
var probeSink float64

// prober runs the layer probes of one traced run.  Every probe calls an
// exported function of its layer from outside, keeps that layer's own
// checks (ExecResult.Err, Merge's error, the store's key echo), and
// writes one metric; the first failed check aborts the run.
type prober struct {
	rc  runConfig
	ctx context.Context
	m   map[string]float64
	err error
}

// iters scales a frozen iteration count for -quick.
func (p *prober) iters(n int) int { return p.rc.scale(n) }

// fail records the first failed check.
func (p *prober) fail(name string, err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
}

// perOp times n calls of fn, probeRepeats times, and records the median
// time per call in the given unit.
func (p *prober) perOp(name string, unit time.Duration, n int, fn func()) {
	if p.err != nil {
		return
	}
	n = p.iters(n)
	reps := make([]float64, probeRepeats)
	for r := range reps {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		reps[r] = float64(time.Since(start)) / float64(unit) / float64(n)
	}
	p.m[name] = median(reps)
}

// runProbes measures every layer from outside and stores the per-layer
// probe metrics in m.
func runProbes(ctx context.Context, rc runConfig, m map[string]float64) error {
	p := &prober{rc: rc, ctx: ctx, m: m}
	dir, err := os.MkdirTemp(rc.outDir, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p.fpe()
	p.simmpi()
	p.apps()
	sum := p.faultsim(dir)
	p.core()
	p.store(dir, sum)
	p.server(dir)
	p.dist()
	p.telemetry()
	return p.err
}

func (p *prober) fpe() {
	var s float64
	clean := fpe.New()
	p.perOp("fpe.clean_op_ns", time.Nanosecond, 2_000_000, func() { s = clean.Add(s, 1.0) })
	armed := fpe.NewWithPlan([]fpe.Injection{{Class: fpe.Common, Index: 1 << 62, Bit: 1}})
	p.perOp("fpe.armed_op_ns", time.Nanosecond, 2_000_000, func() { s = armed.Add(s, 1.0) })
	fired := fpe.NewWithPlan([]fpe.Injection{{Class: fpe.Common, Index: 0, Bit: 1}})
	fired.Add(1, 2)
	if fired.Pending() != 0 {
		p.fail("fpe.exhausted_op_ns", errors.New("the planned injection did not fire"))
	}
	p.perOp("fpe.exhausted_op_ns", time.Nanosecond, 2_000_000, func() { s = fired.Add(s, 1.0) })
	plan := []fpe.Injection{{Class: fpe.Common, Index: 3, Bit: 7}}
	p.perOp("fpe.reset_plan_ns", time.Nanosecond, 1_000_000, func() { clean.ResetPlan(plan) })
	x, y := make([]float64, 1024), make([]float64, 1024)
	for i := range x {
		x[i], y[i] = float64(i), 0.5
	}
	dot := fpe.New()
	p.perOp("fpe.dot_1k_ns", time.Nanosecond, 5_000, func() { s += dot.Dot(x, y) })
	probeSink = s
}

// collective is one simmpi operation the probe times per call.
type collective struct {
	name  string
	procs int
	calls int
	op    func(c *simmpi.Comm)
}

func (p *prober) simmpi() {
	empty := func(*simmpi.Comm) error { return nil }
	for _, procs := range []int{8, 64} {
		p.perOp(fmt.Sprintf("simmpi.world_run_p%d_us", procs), time.Microsecond, 1600/procs, func() {
			_, err := simmpi.Run(simmpi.Config{Procs: procs}, empty)
			p.fail("simmpi.world_run", err)
		})
	}
	eng, err := simmpi.NewEngine(simmpi.Config{Procs: 64})
	p.fail("simmpi.engine_run_p64_us", err)
	if err == nil {
		p.perOp("simmpi.engine_run_p64_us", time.Microsecond, 100, func() {
			_, err := eng.RunCtx(p.ctx, empty)
			p.fail("simmpi.engine_run_p64_us", err)
		})
	}

	one := []float64{1}
	ring := func(c *simmpi.Comm) {
		n := c.Size()
		c.Sendrecv((c.Rank()+1)%n, 7, one, (c.Rank()+n-1)%n, 7)
	}
	alltoall := func(c *simmpi.Comm) {
		send := make([][]float64, c.Size())
		for i := range send {
			send[i] = one
		}
		c.Alltoall(send)
	}
	for _, col := range []collective{
		{"allreduce_p8", 8, 2000, func(c *simmpi.Comm) { c.Allreduce(simmpi.OpSum, one) }},
		{"allreduce_p64", 64, 400, func(c *simmpi.Comm) { c.Allreduce(simmpi.OpSum, one) }},
		{"alltoall_p8", 8, 2000, alltoall},
		{"alltoall_p64", 64, 50, alltoall},
		{"bcast_p64", 64, 400, func(c *simmpi.Comm) { c.Bcast(0, one) }},
		{"sendrecv_ring_p8", 8, 2000, ring},
	} {
		p.collective(col)
	}

	cg, err := apps.Lookup("CG")
	p.fail("simmpi.msgs_cg_p64", err)
	if err == nil {
		res := apps.ExecuteCtx(p.ctx, cg, cg.DefaultClass(), 64, nil, apps.DefaultTimeout)
		p.fail("simmpi.msgs_cg_p64", res.Err)
		p.m["simmpi.msgs_cg_p64"] = float64(res.Comm.Messages)
		p.m["simmpi.floats_cg_p64"] = float64(res.Comm.Floats)
	}
}

// collective reports the per-call cost of one operation as the difference
// between a world that makes `calls` calls and one that makes none, so
// world start-up cancels out.
func (p *prober) collective(col collective) {
	if p.err != nil {
		return
	}
	eng, err := simmpi.NewEngine(simmpi.Config{Procs: col.procs})
	if err != nil {
		p.fail(col.name, err)
		return
	}
	calls := p.iters(col.calls)
	timeWorld := func(n int) float64 {
		start := time.Now()
		_, err := eng.RunCtx(p.ctx, func(c *simmpi.Comm) error {
			for i := 0; i < n; i++ {
				col.op(c)
			}
			return nil
		})
		p.fail(col.name, err)
		return float64(time.Since(start)) / float64(time.Microsecond)
	}
	reps := make([]float64, probeRepeats)
	for r := range reps {
		reps[r] = (timeWorld(calls) - timeWorld(0)) / float64(calls)
	}
	p.m["simmpi."+col.name+"_us"] = median(reps)
}

// cleanRun times one fault-free pooled execution (median of the repeats,
// after one run that builds the arena).
func (p *prober) cleanRun(app apps.App, procs int) float64 {
	arena := apps.NewArena()
	reps := make([]float64, 0, probeRepeats)
	for r := 0; r <= probeRepeats; r++ {
		start := time.Now()
		res := arena.ExecuteCtx(p.ctx, app, app.DefaultClass(), procs, nil, apps.DefaultTimeout)
		if res.Err != nil {
			p.fail(fmt.Sprintf("apps.%s_p%d_ms", strings.ToLower(app.Name()), procs), res.Err)
			return 0
		}
		if r > 0 {
			reps = append(reps, float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	return median(reps)
}

func (p *prober) apps() {
	for _, name := range exper.PaperBenchmarks {
		app, err := apps.Lookup(name)
		if err != nil {
			p.fail("apps", err)
			return
		}
		for _, procs := range []int{1, 64} {
			if p.err == nil {
				p.m[fmt.Sprintf("apps.%s_p%d_ms", strings.ToLower(name), procs)] = p.cleanRun(app, procs)
			}
		}
	}
}

// faultsim probes the trial engine on CG and returns a real 200-trial
// summary for the store probes.
func (p *prober) faultsim(dir string) *faultsim.Summary {
	cg, err := apps.Lookup("CG")
	if err != nil {
		p.fail("faultsim", err)
		return nil
	}
	goldens := map[int]*faultsim.Golden{}
	for _, procs := range []int{1, 4, 64} {
		g, err := faultsim.ComputeGoldenCtx(p.ctx, cg, "", procs, apps.DefaultTimeout)
		if err != nil {
			p.fail("faultsim.golden", err)
			return nil
		}
		goldens[procs] = g
	}
	campaign := func(procs, trials, workers int) faultsim.Campaign {
		return faultsim.Campaign{App: cg, Procs: procs, Trials: trials, Seed: p.rc.seed, Workers: workers}
	}
	for _, t := range []struct{ procs, trials int }{{1, 30}, {4, 25}, {64, 6}} {
		trials := max(2, p.iters(t.trials))
		p.perOp(fmt.Sprintf("faultsim.trial_p%d_us", t.procs), time.Microsecond*time.Duration(trials), 1, func() {
			sum, err := faultsim.RunAgainstCtx(p.ctx, campaign(t.procs, trials, 1), goldens[t.procs])
			if err == nil && (sum.Interrupted || sum.TrialsDone != uint64(trials)) {
				err = fmt.Errorf("campaign incomplete: %d/%d trials", sum.TrialsDone, trials)
			}
			p.fail("faultsim.trial", err)
		})
	}
	// Trial over clean pooled run, as a ratio of two timings taken back to
	// back so a slow minute of the host cancels out.
	ratios := make([]float64, probeRepeats)
	for r := range ratios {
		trials := max(2, p.iters(25))
		start := time.Now()
		_, err := faultsim.RunAgainstCtx(p.ctx, campaign(4, trials, 1), goldens[4])
		p.fail("faultsim.trial_overhead_frac_p4", err)
		perTrial := float64(time.Since(start)) / float64(time.Millisecond) / float64(trials)
		if base := p.cleanRun(cg, 4); base > 0 {
			ratios[r] = perTrial/base - 1
		}
	}
	p.m["faultsim.trial_overhead_frac_p4"] = median(ratios)
	p.perOp("faultsim.golden_cg_p16_ms", time.Millisecond, 1, func() {
		_, err := faultsim.ComputeGoldenCtx(p.ctx, cg, "", 16, apps.DefaultTimeout)
		p.fail("faultsim.golden_cg_p16_ms", err)
	})

	shard := campaign(4, 200, 1)
	var res *faultsim.ShardResult
	p.perOp("faultsim.shard_25_ms", time.Millisecond, 1, func() {
		r, err := faultsim.RunShardCtx(p.ctx, shard, goldens[4], 0, 25)
		p.fail("faultsim.shard_25_ms", err)
		res = r
	})
	if p.err != nil {
		return nil
	}
	var merge time.Duration
	n := p.iters(500)
	for i := 0; i < n; i++ {
		m := faultsim.NewMerger(shard, goldens[4])
		start := time.Now()
		err := m.Merge(res)
		merge += time.Since(start)
		p.fail("faultsim.merge_shard_us", err)
	}
	p.m["faultsim.merge_shard_us"] = float64(merge) / float64(time.Microsecond) / float64(n)
	path := filepath.Join(dir, "probe.ckpt")
	p.perOp("faultsim.checkpoint_save_us", time.Microsecond, 100, func() {
		p.fail("faultsim.checkpoint_save_us", faultsim.SaveCheckpoint(path, res.Checkpoint))
	})
	if fi, err := os.Stat(path); err == nil {
		p.m["faultsim.checkpoint_bytes"] = float64(fi.Size())
	}

	sum, err := faultsim.RunAgainstCtx(p.ctx, campaign(4, max(8, p.iters(200)), 0), goldens[4])
	p.fail("faultsim: 200-trial campaign", err)
	return sum
}

func (p *prober) core() {
	xs, err := core.SampleXs(16, 4)
	if err != nil {
		p.fail("core.predict_ns", err)
		return
	}
	rates := make([]stats.Rates, len(xs))
	for i := range rates {
		f := 0.05 * float64(i+1)
		rates[i] = stats.Rates{Success: 0.8 - f, SDC: 0.1, Failure: 0.1 + f, N: 400}
	}
	curve, err := core.NewSerialCurve(16, xs, rates)
	if err != nil {
		p.fail("core.predict_ns", err)
		return
	}
	in := core.Inputs{P: 16, Serial: curve, SmallProfile: []float64{0.4, 0.3, 0.2, 0.1},
		SmallConditional: map[int]stats.Rates{1: rates[0], 2: rates[1], 3: rates[2], 4: rates[3]},
		Prob2:            0.1, Unique: rates[0]}
	p.perOp("core.predict_ns", time.Nanosecond, 50_000, func() {
		pred, err := core.Predict(in)
		p.fail("core.predict_ns", err)
		probeSink += pred.Rates.Success
	})
}

func (p *prober) store(dir string, sum *faultsim.Summary) {
	if p.err != nil {
		return
	}
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "store")})
	if err != nil {
		p.fail("store", err)
		return
	}
	doc := []byte(`{"probe":"` + strings.Repeat("x", 1000) + `"}`)
	i := 0
	p.perOp("store.put_us", time.Microsecond, 300, func() {
		i++
		p.fail("store.put_us", st.Put(fmt.Sprintf("probe:put/%d", i), doc))
	})
	want := func(name string, ok bool) {
		if !ok {
			p.fail(name, errors.New("stored entry not found"))
		}
	}
	p.perOp("store.get_mem_us", time.Microsecond, 50_000, func() {
		_, ok := st.Get("probe:put/1")
		want("store.get_mem_us", ok)
	})
	// A one-entry LRU over two keys: every Get finds its key evicted and
	// goes to disk.
	cold, err := store.Open(store.Config{Dir: filepath.Join(dir, "store"), MaxEntries: 1})
	if err != nil {
		p.fail("store.get_disk_us", err)
		return
	}
	i = 0
	p.perOp("store.get_disk_us", time.Microsecond, 1000, func() {
		i++
		_, ok := cold.Get(fmt.Sprintf("probe:put/%d", 1+i%2))
		want("store.get_disk_us", ok)
	})
	if s := cold.Stats(); s.MemHits != 0 {
		p.fail("store.get_disk_us", fmt.Errorf("%d reads were served from memory", s.MemHits))
	}

	cache := store.CampaignCache{Store: st}
	id := "cid:probe/" + fmt.Sprint(p.rc.seed)
	p.perOp("store.put_summary_us", time.Microsecond, 300, func() { cache.PutSummary(id, sum) })
	p.perOp("store.get_summary_us", time.Microsecond, 5_000, func() {
		got, ok := cache.GetSummary(id)
		want("store.get_summary_us", ok && got.TrialsDone == sum.TrialsDone)
	})
	if b, err := json.Marshal(sum.Record(id)); err == nil {
		p.m["store.summary_bytes"] = float64(len(b))
	}
}

// server drives three endpoints straight through the handler with a
// recorder, no socket, so handler cost separates from loopback HTTP cost.
func (p *prober) server(dir string) {
	if p.err != nil {
		return
	}
	svc, err := startService(filepath.Join(dir, "server"), server.Config{Trials: warmTrials, Seed: p.rc.seed})
	if err != nil {
		p.fail("server", err)
		return
	}
	defer svc.stop()
	h := svc.srv.Handler()
	const body = `{"app":"PENNANT","small":2,"large":4}`
	call := func(name, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			p.fail(name, fmt.Errorf("%s %s: status %d", method, path, rec.Code))
		}
		return rec
	}
	var v jobView
	if err := json.Unmarshal(call("server", "POST", "/v1/predictions", body).Body.Bytes(), &v); err != nil {
		p.fail("server", err)
		return
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	if final, _, err := followEvents(c, svc.base, v.ID); err != nil || final.Status != server.StatusDone {
		p.fail("server", fmt.Errorf("probe job did not finish: %v %q", err, final.Status))
		return
	}
	p.perOp("server.handler_post_hit_us", time.Microsecond, 5_000, func() {
		call("server.handler_post_hit_us", "POST", "/v1/predictions", body)
	})
	p.perOp("server.handler_get_job_us", time.Microsecond, 5_000, func() {
		call("server.handler_get_job_us", "GET", "/v1/predictions/"+v.ID, "")
	})
	p.perOp("server.handler_metrics_us", time.Microsecond, 2_000, func() {
		p.m["server.metrics_bytes"] = float64(call("server.handler_metrics_us", "GET", "/metrics", "").Body.Len())
	})
}

func (p *prober) dist() {
	if p.err != nil {
		return
	}
	pennant, err := apps.Lookup("PENNANT")
	if err != nil {
		p.fail("dist", err)
		return
	}
	c := faultsim.Campaign{App: pennant, Procs: 1, Trials: max(8, p.iters(64)), Seed: p.rc.seed}.Normalized()
	golden, err := faultsim.ComputeGoldenCtx(p.ctx, pennant, "", 1, apps.DefaultTimeout)
	if err != nil {
		p.fail("dist", err)
		return
	}
	req := dist.ShardRequest{Campaign: dist.SpecOf(c), Start: 0, End: c.Trials}
	var wire []byte
	p.perOp("dist.spec_encode_us", time.Microsecond, 20_000, func() {
		wire, err = json.Marshal(dist.ShardRequest{Campaign: dist.SpecOf(c), Start: 0, End: c.Trials})
		p.fail("dist.spec_encode_us", err)
	})
	p.m["dist.shard_request_bytes"] = float64(len(wire))
	res, err := faultsim.RunShardCtx(p.ctx, c, golden, req.Start, req.End)
	if err != nil {
		p.fail("dist.response_decode_us", err)
		return
	}
	wire, err = json.Marshal(dist.ShardResponse{Worker: "probe", Result: res, ElapsedNS: 1})
	p.fail("dist.response_decode_us", err)
	p.m["dist.shard_response_bytes"] = float64(len(wire))
	p.perOp("dist.response_decode_us", time.Microsecond, 5_000, func() {
		var sr dist.ShardResponse
		p.fail("dist.response_decode_us", json.Unmarshal(wire, &sr))
	})

	f, err := startFleet(p.ctx, 2, 1)
	if err != nil {
		p.fail("dist.tiny_campaign_overhead_ms", err)
		return
	}
	defer f.Close()
	local := func() {
		_, err := faultsim.RunAgainstCtx(p.ctx, c, golden)
		p.fail("dist.tiny_campaign_overhead_ms", err)
	}
	distribute := func() {
		sum, handled, err := f.pool.Distribute(p.ctx, c, golden)
		if err == nil && (!handled || sum.TrialsDone != uint64(c.Trials)) {
			err = errors.New("the pool did not run the campaign")
		}
		p.fail("dist.tiny_campaign_overhead_ms", err)
	}
	distribute() // the workers compute and cache the golden run once
	// The overhead is a difference of two timings, so each repeat takes
	// them back to back and the median is over the differences.
	locals, diffs := make([]float64, probeRepeats), make([]float64, probeRepeats)
	for r := range diffs {
		t0 := time.Now()
		local()
		t1 := time.Now()
		distribute()
		locals[r] = float64(t1.Sub(t0)) / float64(time.Millisecond)
		diffs[r] = float64(time.Since(t1))/float64(time.Millisecond) - locals[r]
	}
	p.m["dist.tiny_campaign_local_ms"] = median(locals)
	p.m["dist.tiny_campaign_overhead_ms"] = median(diffs)
}

func (p *prober) telemetry() {
	// Spans accumulate in their tracer, so each repeat gets a fresh one.
	var tr *telemetry.Tracer
	n := 0
	p.perOp("telemetry.span_ns", time.Nanosecond, 20_000, func() {
		if n%p.iters(20_000) == 0 {
			tr = telemetry.NewTracer()
		}
		n++
		_, sp := tr.Start(p.ctx, "probe")
		sp.End()
	})
	rec := telemetry.NewRecorder()
	p.perOp("telemetry.recorder_trial_done_ns", time.Nanosecond, 500_000, func() { rec.TrialDone("success", time.Millisecond) })
	bus := telemetry.NewProgress()
	ev := telemetry.ProgressEvent{Kind: telemetry.KindCampaign, Key: "cid:probe", State: telemetry.StateRunning, Done: 1, Total: 2}
	p.perOp("telemetry.progress_publish_ns", time.Nanosecond, 200_000, func() { bus.Publish(ev) })

	series := telemetry.NewSeriesStore()
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("probe_%d", i)
	}
	tick := time.Unix(1_700_000_000, 0)
	sampler := telemetry.NewSampler(series, func() telemetry.Samples {
		s := telemetry.Samples{Gauges: map[string]float64{}, Counters: map[string]float64{}}
		for i, name := range names {
			if i%2 == 0 {
				s.Gauges[name] = float64(i)
			} else {
				s.Counters[name] = float64(tick.Unix())
			}
		}
		return s
	}, 10*time.Second)
	p.perOp("telemetry.sampler_tick_us", time.Microsecond, 2_000, func() {
		tick = tick.Add(10 * time.Second)
		sampler.SampleNow(tick)
	})
	p.perOp("telemetry.series_query_us", time.Microsecond, 5_000, func() {
		probeSink += float64(len(series.Query(names[0], tick.Add(-time.Hour), 60)))
	})
	engine := telemetry.NewAlertEngine(series, bus, server.BuiltinRules(10*time.Second))
	p.perOp("telemetry.alert_eval_us", time.Microsecond, 2_000, func() { engine.Evaluate(tick) })
}
