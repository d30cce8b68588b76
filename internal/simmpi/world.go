// Package simmpi is resmod's in-process message-passing runtime — the
// stand-in for MPI in the paper's testbed.  A parallel execution of p ranks
// is p goroutines, each holding a Comm handle.  Every rank owns one inbox:
// a mutex-guarded queue of the messages sent to it and not yet received,
// in arrival order.  Send appends to the destination's inbox and wakes
// its owner if it is parked on exactly that message; Recv takes the first
// queued message matching its (source, tag) and otherwise parks.  Messages
// of one (source, tag) are therefore received in the order they were sent,
// and a world's memory is O(p) plus what is in flight, whatever its
// communication pattern: nothing is sized by pairs of ranks.
//
// Payload ownership: Send copies, so the sender keeps its slice.  Recv
// hands the payload's buffer to the caller, who may keep it for good.
// RecvInto copies the payload into the caller's destination and keeps the
// buffer: it joins the inbox's bounded free list, where a later Send of a
// matching size to this rank finds it instead of allocating.  A program
// whose loops receive with RecvInto therefore stops allocating per message
// once its first iteration has stocked the lists; an Engine carries them
// from one run to the next.
//
// Collectives (Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall,
// Gather, Scatter) send no messages: the ranks' memory is one address
// space, so the ranks meet at the world's rendezvous, each publishing its
// buffers and parking, and the last to arrive moves all the data and
// releases the others.  Every collective therefore blocks until
// all ranks have entered it, the rooted ones included — MPI permits that,
// and a correct program must not rely on the opposite.  A reduction is
// folded in the order of the classic binomial tree, fixed and dependent on
// the size only, so that every execution at a given scale is bit-for-bit
// deterministic.  Determinism is what makes the fault-injection harness
// able to detect rank contamination by exact state comparison.  Ranks
// that enter different collectives (or one collective with different
// operators, roots or lengths) have a bug, reported by a panic naming both.
//
// Fault containment: if any rank panics, returns an error, or the world's
// watchdog expires (a hang), the whole world aborts; every rank blocked in
// a communication call — parked on its inbox or at the rendezvous — is
// released.  Communication calls signal the abort
// by panicking with an internal sentinel that Run translates back into an
// error, so application code can be written without per-call error plumbing
// — the style real MPI codes use (MPI_Abort semantics).
package simmpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a simulated world.
type Config struct {
	// Procs is the number of ranks (>= 1).
	Procs int
	// Timeout aborts the world if the program has not finished in time — the
	// harness's hang detector.  Zero means no watchdog.
	Timeout time.Duration
}

// Common world errors.
var (
	// ErrTimeout reports that the watchdog fired: the execution hung.
	ErrTimeout = errors.New("simmpi: world timed out (hang)")
	// ErrAborted reports that a communication call was interrupted because
	// another rank failed first.
	ErrAborted = errors.New("simmpi: world aborted")
	// ErrCanceled reports that the caller's context canceled the world
	// before it finished.  The wrapped error also matches the context's own
	// cause (context.Canceled or context.DeadlineExceeded), so callers can
	// distinguish external interruption from an application hang
	// (ErrTimeout) or crash (*PanicError).
	ErrCanceled = errors.New("simmpi: world canceled")
)

// RankError wraps an error returned by a rank's function.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("simmpi: rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying rank error.
func (e *RankError) Unwrap() error { return e.Err }

// PanicError wraps a panic raised inside a rank's function — the harness
// classifies it as an application crash (the paper's "Failure" outcome).
type PanicError struct {
	Rank  int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simmpi: rank %d panicked: %v", e.Rank, e.Value)
}

// message is one point-to-point payload.
type message struct {
	src, tag int
	data     []float64
}

// pairCap is the per-(sender, receiver) backpressure bound: a Send blocks
// while this many of the sender's own messages sit unreceived at the
// destination, like MPI's rendezvous protocol.
const pairCap = 256

// inbox is one rank's receive queue.  Senders append under mu; only the
// owning rank removes.
type inbox struct {
	mu sync.Mutex
	// q holds the unreceived messages in arrival order.
	q []message

	// parked is set while the owner waits on arrive for a message
	// matching (wantSrc, wantTag); only that message's Send signals it.
	parked           bool
	wantSrc, wantTag int
	arrive           sync.Cond
	// blocked counts senders waiting on room for the owner to receive.
	blocked int
	room    sync.Cond

	// msgs and floats count what was sent here in the current run.
	msgs, floats uint64

	// free holds the buffers of payloads RecvInto has copied out, newest
	// last, for Sends to this rank to fill again.
	free [][]float64
}

// freeSlack is the room a free list has beyond one buffer per peer (what a
// fan-in lands on one rank): the halo messages of other sizes that
// circulate beside them.
const freeSlack = 16

// poisonFreed makes recycle fill a buffer with NaN as it enters a free
// list, so a read of recycled memory changes a result instead of going
// unseen.  Only tests set it.
var poisonFreed bool

// grab returns a buffer of n floats for a payload: the newest free one that
// holds n without being more than twice as large (a scalar must not walk
// off with a vector's buffer, which the next vector would then have to
// allocate), or a new one.  Its contents are stale; Send overwrites all n.
func (in *inbox) grab(n int) []float64 {
	for i := len(in.free) - 1; i >= 0; i-- {
		if b := in.free[i]; n <= cap(b) && cap(b) <= 2*n {
			last := len(in.free) - 1
			in.free[i] = in.free[last]
			in.free[last] = nil
			in.free = in.free[:last]
			return b[:n]
		}
	}
	return make([]float64, n)
}

// recycle keeps a delivered payload's buffer for grab, unless the list
// already holds max of them.
func (in *inbox) recycle(b []float64, max int) {
	if cap(b) == 0 || len(in.free) >= max {
		return
	}
	if poisonFreed {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	in.free = append(in.free, b)
}

// take removes q[i], keeping the other messages in arrival order.
func (in *inbox) take(i int) {
	last := len(in.q) - 1
	copy(in.q[i:], in.q[i+1:])
	in.q[last] = message{}
	in.q = in.q[:last]
}

// full reports whether src has pairCap messages unreceived here.  Only an
// inbox at least that deep can hold them, so shallower ones are not counted.
func (in *inbox) full(src int) bool {
	if len(in.q) < pairCap {
		return false
	}
	n := 0
	for _, m := range in.q {
		if m.src == src {
			n++
		}
	}
	return n >= pairCap
}

// reset empties the inbox for the next run.  The backing array is kept;
// the payloads it referenced are not.
func (in *inbox) reset() {
	clear(in.q)
	in.q = in.q[:0]
	in.msgs, in.floats = 0, 0
}

// world is the shared state of one simulated execution.
type world struct {
	inboxes []inbox     // by world rank
	root    *rendezvous // where the ranks meet for collectives
	failure atomic.Pointer[worldFailure]
}

type worldFailure struct{ err error }

// fail records the first failure and releases every parked rank.  Taking
// each inbox's and rendezvous' lock orders the wake-up after any rank that
// saw no failure and is about to park.
func (w *world) fail(err error) {
	if !w.failure.CompareAndSwap(nil, &worldFailure{err: err}) {
		return
	}
	for i := range w.inboxes {
		in := &w.inboxes[i]
		in.mu.Lock()
		in.arrive.Broadcast()
		in.room.Broadcast()
		in.mu.Unlock()
	}
	w.root.wake()
}

// err returns the recorded failure, if any.
func (w *world) err() error {
	if f := w.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// abortPanic is the sentinel communication calls raise when the world has
// aborted; Run translates it into ErrAborted for the affected rank.
type abortPanic struct{}

// Stats reports communication volume for a finished world.
type Stats struct {
	// Messages is the number of point-to-point messages sent, plus one
	// for each rank's arrival at each collective that completed (on a
	// one-rank world there is nobody to meet and nothing to count).
	Messages uint64
	// Floats is the number of float64 values those messages carried,
	// plus every value a collective moved from one rank's buffers into
	// another's: what a rank receives from others.
	Floats uint64
}

// Run executes fn on every rank of a freshly created world and waits for
// all ranks to finish.  It returns the first failure: a *PanicError if a
// rank panicked, ErrTimeout if the watchdog fired, or a *RankError wrapping
// the first non-nil error returned by fn.  On success it returns nil.
func Run(cfg Config, fn func(c *Comm) error) (Stats, error) {
	return RunCtx(context.Background(), cfg, fn)
}

// RunCtx is Run under a context: when ctx is canceled (or its deadline
// passes) the world aborts promptly — every rank blocked in a communication
// call is released — and the error wraps both ErrCanceled and ctx.Err().
// Ranks not blocked in communication finish their current compute section
// before observing the abort.
func RunCtx(ctx context.Context, cfg Config, fn func(c *Comm) error) (Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	return e.RunCtx(ctx, fn)
}

// runWorld executes fn on every rank of a world whose inboxes are empty
// and whose rendezvous is reset,
// and returns once every rank goroutine has finished.
func runWorld(ctx context.Context, w *world, timeout time.Duration, fn func(c *Comm) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	wg.Add(len(w.inboxes))
	for r := range w.inboxes {
		go func(rank int) {
			defer wg.Done()
			comm := &Comm{w: w, rank: rank, size: len(w.inboxes)}
			defer func() {
				if v := recover(); v != nil {
					if _, isAbort := v.(abortPanic); isAbort {
						return // world already failed; nothing to add
					}
					w.fail(&PanicError{Rank: rank, Value: v})
				}
			}()
			if err := fn(comm); err != nil {
				w.fail(&RankError{Rank: rank, Err: err})
			}
		}(r)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case <-done:
	case <-timerC:
		w.fail(ErrTimeout)
		<-done
	case <-ctx.Done():
		w.fail(fmt.Errorf("%w: %w", ErrCanceled, ctx.Err()))
		<-done
	}
	return w.err()
}
