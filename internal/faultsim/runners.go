package faultsim

import (
	"context"
	"runtime"
	"time"

	"resmod/internal/apps"
)

// Runners is the set of trial runners that concurrently executing
// campaigns share.  Each of its slots is one apps.Arena: a trial holds a
// slot for its duration and runs on that slot's arena, and a golden run
// holds one for its own, so however many campaigns draw on the set, no
// more than Size() trials and goldens run at once and no more than Size()
// arenas exist.  A campaign with no set of its own (Campaign.Pool nil)
// gets a private set of Workers slots.
//
// A slot is held only for one trial or golden run, never across a
// campaign-level wait, so taking one cannot deadlock: every held slot is
// making progress toward its return.  Which slot runs which trial never
// changes a result (an arena's reuse is bit-identical to fresh state).
type Runners struct {
	free chan *apps.Arena
}

// NewRunners creates a set of n runners; n <= 0 selects GOMAXPROCS.  The
// arenas build their state on first use.
func NewRunners(n int) *Runners {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r := &Runners{free: make(chan *apps.Arena, n)}
	for range n {
		r.free <- apps.NewArena()
	}
	return r
}

// Size returns the slot count.
func (r *Runners) Size() int { return cap(r.free) }

// InUse returns the number of slots held.  It is inherently racy under
// concurrency and intended for telemetry and tests.
func (r *Runners) InUse() int { return cap(r.free) - len(r.free) }

// take blocks until a slot is free or ctx is done, and returns the
// slot's arena.
func (r *Runners) take(ctx context.Context) (*apps.Arena, error) {
	select {
	case a := <-r.free:
		return a, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// put returns a slot taken with take.
func (r *Runners) put(a *apps.Arena) { r.free <- a }

// Golden is ComputeGoldenCtx on one of the set's slots: a golden run
// occupies the machine like one in-flight trial, so it waits for a slot
// and runs on its arena.
func (r *Runners) Golden(ctx context.Context, app apps.App, class string, procs int, timeout time.Duration) (*Golden, error) {
	a, err := r.take(ctx)
	if err != nil {
		return nil, err
	}
	defer r.put(a)
	return computeGolden(ctx, a, app, class, procs, timeout)
}
