package simmpi

import (
	"context"
	"fmt"
	"time"
)

// Engine is a reusable allocation arena for repeated executions of the
// same world shape.  A world is one inbox per rank and the world
// communicator's rendezvous, one slot per rank — O(procs) memory, none of
// it sized by pairs of ranks — and a fault-injection campaign builds
// thousands of identically-shaped worlds, so an Engine keeps the inboxes,
// the queue arrays they have grown, the free lists of payload buffers
// their RecvIntos have stocked and the rendezvous alive across runs: each
// RunCtx call leaves the queues and the rendezvous empty, releasing
// whatever payloads a run left undelivered and whatever buffers its last
// collective published, and the next run's Sends find the previous run's
// buffers.  A free list holds at most one buffer per rank plus freeSlack,
// and a run that fails (a rank panic or error, a timeout, a cancellation)
// keeps none, and no rendezvous either (the next run meets at a new one):
// what an abort interrupted is not worth reasoning about.
//
// An Engine is owned by one trial-executing goroutine: RunCtx must not
// be called concurrently on the same Engine, and a new run may start
// only after the previous one returned (which RunCtx guarantees — it
// joins every rank goroutine on all exit paths, so no goroutine of an
// earlier run can still touch the pooled state).  Reuse is invisible to
// the program under execution: ranks, tags, message order and failure
// semantics are exactly those of a fresh world, so results are
// bit-identical with and without pooling.
type Engine struct {
	timeout time.Duration
	inboxes []inbox
	root    *rendezvous
}

// NewEngine validates cfg and allocates the world arena once.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("simmpi: Procs must be >= 1, got %d", cfg.Procs)
	}
	e := &Engine{timeout: cfg.Timeout, inboxes: make([]inbox, cfg.Procs), root: newRendezvous(cfg.Procs)}
	for i := range e.inboxes {
		in := &e.inboxes[i]
		in.arrive.L, in.room.L = &in.mu, &in.mu
	}
	return e, nil
}

// Procs returns the engine's world size.
func (e *Engine) Procs() int { return len(e.inboxes) }

// RunCtx executes fn on every rank of a world drawn from the arena,
// with the same semantics as the package-level RunCtx.  It returns only
// after every rank goroutine has finished, so the arena is immediately
// reusable.
func (e *Engine) RunCtx(ctx context.Context, fn func(c *Comm) error) (Stats, error) {
	err := runWorld(ctx, &world{inboxes: e.inboxes, root: e.root}, e.timeout, fn)
	// No goroutine of the run is alive (runWorld joined them all), so
	// the inboxes and rendezvous are read and emptied without their locks.
	var st Stats
	e.root.drain(&st)
	for i := range e.inboxes {
		in := &e.inboxes[i]
		st.Messages += in.msgs
		st.Floats += in.floats
		in.reset()
		if err != nil {
			in.free = nil
		}
	}
	if err != nil {
		e.root = newRendezvous(len(e.inboxes))
	}
	return st, err
}
