package faultsim

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// gaugeApp tracks the high-water mark of concurrently executing trials
// and, when ctxs is set, every rank-0 fpe context it is handed.
type gaugeApp struct {
	cur, max *int64
	ctxs     *sync.Map
}

func (gaugeApp) Name() string               { return "gauge-test" }
func (gaugeApp) Classes() []string          { return []string{"X"} }
func (gaugeApp) DefaultClass() string       { return "X" }
func (gaugeApp) MaxProcs(string) int        { return 8 }
func (gaugeApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (a gaugeApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string) (apps.RankOutput, error) {
	// Count each trial once (rank 0), not once per rank goroutine.
	if comm.Rank() == 0 {
		if a.ctxs != nil {
			a.ctxs.Store(fc, true)
		}
		n := atomic.AddInt64(a.cur, 1)
		for {
			old := atomic.LoadInt64(a.max)
			if n <= old || atomic.CompareAndSwapInt64(a.max, old, n) {
				break
			}
		}
		defer atomic.AddInt64(a.cur, -1)
		// Dwell long enough that concurrent trials overlap observably.
		time.Sleep(2 * time.Millisecond)
	}
	s := 0.0
	for i := 0; i < 50; i++ {
		s = fc.Add(s, float64(i))
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestSharedBudgetBoundsConcurrentCampaigns(t *testing.T) {
	// Two campaigns, each wanting 4 trial workers, share a 2-slot runner
	// set: the high-water mark of in-flight trials must be <= 2, and both
	// campaigns must still complete every trial.
	var cur, max int64
	app := gaugeApp{cur: &cur, max: &max}
	pool := NewRunners(2)
	var wg sync.WaitGroup
	sums := make([]*Summary, 2)
	errs := make([]error, 2)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = Run(Campaign{
				App: app, Procs: 2, Trials: 20, Seed: uint64(i + 1),
				Workers: 4, Pool: pool,
			})
		}(i)
	}
	wg.Wait()
	for i := range sums {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sums[i].Rates.N != 20 {
			t.Fatalf("campaign %d: N = %d, want 20", i, sums[i].Rates.N)
		}
	}
	if hw := atomic.LoadInt64(&max); hw > 2 {
		t.Fatalf("high-water mark %d trials in flight, runner set is 2", hw)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d slots leaked", pool.InUse())
	}
}

// TestRunnerSetCapsArenas: the arenas a session builds are bounded by its
// runner set, not by its campaigns' Workers.  An arena keeps its fpe
// contexts across trials, so the distinct rank-0 contexts the app is
// handed count the arenas that ran trials.
func TestRunnerSetCapsArenas(t *testing.T) {
	var cur, max int64
	var ctxs sync.Map
	app := gaugeApp{cur: &cur, max: &max, ctxs: &ctxs}
	golden, err := ComputeGolden(app, "", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxs.Range(func(k, _ any) bool { ctxs.Delete(k); return true }) // the golden's
	pool := NewRunners(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunAgainst(Campaign{
				App: app, Procs: 2, Trials: 20, Seed: uint64(i + 1),
				Workers: 4, Pool: pool,
			}, golden)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	ctxs.Range(func(any, any) bool { n++; return true })
	if n != pool.Size() {
		t.Fatalf("trials ran on %d distinct rank-0 contexts, want one per runner (%d)", n, pool.Size())
	}
}

func TestPooledCampaignMatchesUnpooled(t *testing.T) {
	// A shared runner set schedules only; outcomes must be bit-identical
	// to a run on the campaign's private set.
	c := Campaign{App: lookup(t, "PENNANT"), Procs: 2, Trials: 24, Seed: 7, Workers: 4}
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Pool = NewRunners(1)
	pooled, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rates != pooled.Rates {
		t.Fatalf("pooled rates %+v != unpooled %+v", pooled.Rates, plain.Rates)
	}
	if !reflect.DeepEqual(plain.Hist.Counts, pooled.Hist.Counts) {
		t.Fatalf("pooled hist %+v != unpooled %+v", pooled.Hist.Counts, plain.Hist.Counts)
	}
}

// TestGoldenSurvivesWorkspaceReuse: a golden run's States outlive the
// arena it ran on.  An app's State is an array of the slot's working set,
// which the slot's next execution draws again, so a golden that kept it
// instead of a copy would read as the last trial's State — and would hash
// as whichever trial first asked for its hashes.  Ten trials of a
// contaminating campaign on the golden's one slot must leave the golden's
// States bit for bit as they were.
func TestGoldenSurvivesWorkspaceReuse(t *testing.T) {
	app, err := apps.Lookup("CG")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRunners(1)
	golden, err := pool.Golden(context.Background(), app, "", 4, apps.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(golden.States))
	for r, s := range golden.States {
		want[r] = slices.Clone(s)
	}
	sum, err := RunAgainst(Campaign{App: app, Procs: 4, Trials: 10, Errors: 16, Seed: 7, Pool: pool}, golden)
	if err != nil {
		t.Fatal(err)
	}
	var spread uint64
	for _, n := range sum.SpreadByDistance {
		spread += n
	}
	if spread == 0 {
		t.Fatal("no trial contaminated a rank; the test proves nothing")
	}
	for r := range want {
		if !bitEqual(golden.States[r], want[r]) {
			t.Fatalf("rank %d: the golden's State changed under the trials run on its slot", r)
		}
	}
}
