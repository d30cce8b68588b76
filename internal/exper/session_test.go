package exper

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/faultsim"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// countingApp counts rank executions so tests can assert how many times the
// session actually ran the application.
type countingApp struct{ runs *atomic.Int64 }

func (countingApp) Name() string               { return "session-counting-test" }
func (countingApp) Classes() []string          { return []string{"X"} }
func (countingApp) DefaultClass() string       { return "X" }
func (countingApp) MaxProcs(string) int        { return 8 }
func (countingApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (a countingApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	a.runs.Add(1)
	s := 0.0
	for i := 0; i < 200; i++ {
		s = fc.Add(s, float64(i))
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

func TestGoldenSingleflight(t *testing.T) {
	var runs atomic.Int64
	app := countingApp{runs: &runs}
	s := NewSession(Config{Trials: 4, Seed: 1})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Golden(app, "", 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Eight concurrent requests for the same golden share one execution.
	if got := runs.Load(); got != 1 {
		t.Fatalf("golden executed %d times, want 1", got)
	}
}

// memCache is a trivial SummaryCache for tests.
type memCache struct {
	mu   sync.Mutex
	m    map[string]*faultsim.Summary
	puts int
	gets int
}

func newMemCache() *memCache { return &memCache{m: map[string]*faultsim.Summary{}} }

func (c *memCache) GetSummary(id string) (*faultsim.Summary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	s, ok := c.m[id]
	return s, ok
}

func (c *memCache) PutSummary(id string, s *faultsim.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[id] = s
}

// TestCampaignDurableCache checks the Config.Cache seam: a second session
// sharing the cache answers from it (no application executions, no
// OnCampaign callback), and the identity-keyed entry round-trips the same
// summary.
func TestCampaignDurableCache(t *testing.T) {
	var runs atomic.Int64
	app := countingApp{runs: &runs}
	cache := newMemCache()

	var executed atomic.Int64
	cold := NewSession(Config{Trials: 5, Seed: 1, Cache: cache,
		OnCampaign: func(id string, sum *faultsim.Summary) {
			if sum.TrialsDone != 5 {
				t.Errorf("OnCampaign saw %d trials, want 5", sum.TrialsDone)
			}
			executed.Add(1)
		}})
	first, err := cold.Campaign(app, "", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 || cache.puts != 1 {
		t.Fatalf("cold run: executed=%d puts=%d, want 1/1", executed.Load(), cache.puts)
	}
	coldRuns := runs.Load()

	// A fresh session (new process, same durable cache) must not re-run
	// anything and must not report an executed campaign.
	warm := NewSession(Config{Trials: 5, Seed: 1, Cache: cache,
		OnCampaign: func(string, *faultsim.Summary) { executed.Add(1) }})
	second, err := warm.Campaign(app, "", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 {
		t.Fatal("cache hit still invoked OnCampaign")
	}
	if runs.Load() != coldRuns {
		t.Fatalf("cache hit re-ran the application (%d -> %d executions)",
			coldRuns, runs.Load())
	}
	if second.Rates != first.Rates || second.TrialsDone != first.TrialsDone {
		t.Fatalf("cached summary differs: %+v vs %+v", second.Rates, first.Rates)
	}
}

// TestCampaignConcurrentSubmissions proves (under -race) that N identical
// concurrent campaign requests execute the deployment exactly once and
// write the durable cache exactly once.
func TestCampaignConcurrentSubmissions(t *testing.T) {
	var runs, executed atomic.Int64
	app := countingApp{runs: &runs}
	cache := newMemCache()
	s := NewSession(Config{Trials: 5, Seed: 1, Cache: cache,
		OnCampaign: func(string, *faultsim.Summary) { executed.Add(1) }})

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Campaign(app, "", 1, 1, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if executed.Load() != 1 {
		t.Fatalf("%d identical submissions executed %d campaigns, want exactly 1",
			n, executed.Load())
	}
	if cache.puts != 1 {
		t.Fatalf("cache written %d times, want 1", cache.puts)
	}
	// 1 golden + 5 trials, shared by all 16 submissions.
	if got := runs.Load(); got != 6 {
		t.Fatalf("app executed %d times, want 6", got)
	}
}

// gatedApp blocks its first execution (the golden run) until gate is
// closed, signalling started, so tests can interleave callers with a
// campaign that is reliably in flight.
type gatedApp struct {
	runs    *atomic.Int64
	once    *sync.Once
	started chan struct{}
	gate    chan struct{}
}

func newGatedApp() gatedApp {
	return gatedApp{
		runs: &atomic.Int64{}, once: &sync.Once{},
		started: make(chan struct{}), gate: make(chan struct{}),
	}
}

func (gatedApp) Name() string               { return "session-gated-test" }
func (gatedApp) Classes() []string          { return []string{"X"} }
func (gatedApp) DefaultClass() string       { return "X" }
func (gatedApp) MaxProcs(string) int        { return 8 }
func (gatedApp) Verify(g, c []float64) bool { return apps.VerifyRel(g, c, 1e-12) }

func (a gatedApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, _ *apps.Steps) (apps.RankOutput, error) {
	a.runs.Add(1)
	first := false
	a.once.Do(func() { first = true })
	if first {
		close(a.started)
		<-a.gate
	}
	s := 0.0
	for i := 0; i < 200; i++ {
		s = fc.Add(s, float64(i))
	}
	return apps.RankOutput{State: []float64{s}, Check: []float64{s}}, nil
}

// TestSingleflightSurvivesFirstCallerCancel is the satellite-2 regression:
// the shared computation used to run under the first caller's context, so
// cancelling that caller spuriously failed every deduped waiter.  Now the
// flight must stay alive while any waiter remains.
func TestSingleflightSurvivesFirstCallerCancel(t *testing.T) {
	app := newGatedApp()
	var executed atomic.Int64
	s := NewSession(Config{Trials: 5, Seed: 1,
		OnCampaign: func(string, *faultsim.Summary) { executed.Add(1) }})

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := s.CampaignCtx(ctxA, app, "", 1, 1, 0)
		errA <- err
	}()
	<-app.started // A's flight is now executing the golden run

	type res struct {
		sum *faultsim.Summary
		err error
	}
	resB := make(chan res, 1)
	go func() {
		sum, err := s.CampaignCtx(context.Background(), app, "", 1, 1, 0)
		resB <- res{sum, err}
	}()
	// Wait until B has actually joined the flight (2 waiters) so the
	// cancellation below reliably leaves a surviving waiter behind.
	joined := false
	for i := 0; i < 2000 && !joined; i++ {
		s.mu.Lock()
		for _, f := range s.camps {
			joined = f.waiters >= 2
		}
		s.mu.Unlock()
		if !joined {
			time.Sleep(time.Millisecond)
		}
	}
	if !joined {
		t.Fatal("second caller never joined the in-flight campaign")
	}

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	select {
	case r := <-resB:
		t.Fatalf("waiter returned before the computation finished: %+v, %v", r.sum, r.err)
	case <-time.After(20 * time.Millisecond):
	}

	close(app.gate)
	r := <-resB
	if r.err != nil {
		t.Fatalf("surviving waiter failed: %v", r.err)
	}
	if r.sum == nil || r.sum.TrialsDone != 5 {
		t.Fatalf("surviving waiter got %+v", r.sum)
	}
	if executed.Load() != 1 {
		t.Fatalf("campaign executed %d times, want 1", executed.Load())
	}
}

// TestSingleflightAbandonedThenRetried: when every waiter cancels, the
// shared computation is cancelled and the slot cleared, so a later caller
// starts fresh and succeeds.
func TestSingleflightAbandonedThenRetried(t *testing.T) {
	app := newGatedApp()
	s := NewSession(Config{Trials: 5, Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.CampaignCtx(ctx, app, "", 1, 1, 0)
		errc <- err
	}()
	<-app.started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Release the abandoned golden run; the cancelled flight drains.
	close(app.gate)

	// A fresh caller must get a clean, complete summary.
	sum, err := s.Campaign(app, "", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TrialsDone != 5 || sum.Interrupted {
		t.Fatalf("retried campaign returned %+v", sum)
	}
}

func TestCampaignSingleflight(t *testing.T) {
	var runs atomic.Int64
	app := countingApp{runs: &runs}
	s := NewSession(Config{Trials: 5, Seed: 1})

	var wg sync.WaitGroup
	sums := make([]any, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum, err := s.Campaign(app, "", 1, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = sum
		}(i)
	}
	wg.Wait()
	// One golden + five trials, once — not twice.
	if got := runs.Load(); got != 6 {
		t.Fatalf("app executed %d times, want 6 (1 golden + 5 trials, shared)", got)
	}
	if sums[0] != sums[1] {
		t.Fatal("concurrent callers did not share the cached summary")
	}
}
