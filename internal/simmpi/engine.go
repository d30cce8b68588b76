package simmpi

import (
	"context"
	"runtime"
)

// Engine is a reusable allocation arena for repeated executions of the
// same world shape.  A world is one coroutine and one inbox per rank and
// the world communicator's rendezvous, one slot per rank — O(procs)
// memory, none of it sized by pairs of ranks — and a fault-injection
// campaign builds thousands of identically-shaped worlds, so an Engine
// keeps the rank coroutines (made on its first run), the inboxes, the
// queue arrays they have grown, the free lists of payload buffers their
// RecvIntos have stocked and the rendezvous alive across runs: each RunCtx
// call leaves the queues and the rendezvous empty, releasing whatever
// payloads a run left undelivered and whatever buffers its last collective
// published, and the next run's Sends find the previous run's buffers.  A
// free list holds at most one buffer per rank plus freeSlack, and a run
// that fails (a rank panic or error, a hang, a cancellation) keeps none:
// what an abort interrupted is not worth reasoning about.  A run a rank
// stopped (Comm.Stop) keeps them.
//
// An Engine is owned by one trial-executing goroutine: RunCtx must not
// be called concurrently on the same Engine, and it runs every rank on the
// calling goroutine, returning once all have finished.  A world no rank of
// which can run fails at once with ErrTimeout.  Reuse is invisible to the
// program under execution: ranks, tags, message order and failure
// semantics are exactly those of a fresh world, so results are
// bit-identical with and without pooling.  The rank coroutines end when
// the Engine is garbage-collected.
type Engine struct {
	*world
}

// NewEngine validates cfg and allocates the world arena once.
func NewEngine(cfg Config) (*Engine, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	// The coroutines reference the world, never the Engine, so a dropped
	// Engine is collected and its finalizer ends them.
	e := &Engine{w}
	runtime.SetFinalizer(e, func(e *Engine) { e.close() })
	return e, nil
}

// Procs returns the engine's world size.
func (e *Engine) Procs() int { return len(e.ranks) }

// RunCtx executes fn on every rank of a world drawn from the arena,
// with the same semantics as the package-level RunCtx.  It returns only
// after every rank has finished, so the arena is immediately reusable.
func (e *Engine) RunCtx(ctx context.Context, fn func(c *Comm) error) (Stats, error) {
	st, err := e.run(ctx, fn)
	runtime.KeepAlive(e) // its finalizer must not end the coroutines mid-run
	return st, err
}
