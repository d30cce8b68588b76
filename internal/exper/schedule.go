package exper

import (
	"context"
	"sync"
)

// group runs the independent stages of a campaign DAG concurrently.  It
// is a minimal errgroup: tasks receive a context cancelled as soon as
// any task fails, Wait returns the first error, and every task has
// finished by the time Wait returns.
//
// Actual campaign concurrency is bounded by the Session (campaign slots
// and the shared trial runners), not here: a group may submit every
// stage at once, and stages queue on the session's scheduler.  With
// Config.CampaignParallel = 1 the stages still execute strictly one at a
// time, which is what makes `-campaign-parallel 1` restore sequential
// behavior without a second code path.
type group struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

func newGroup(ctx context.Context) *group {
	ctx, cancel := context.WithCancel(ctx)
	return &group{ctx: ctx, cancel: cancel}
}

// Go submits one stage.
func (g *group) Go(f func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(g.ctx); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
				g.cancel()
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every submitted stage has finished and returns the
// first error (sibling cancellations are suppressed in its favor).
func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
