//go:build go1.23

// The constraint raises this file's language version to go1.23, the first
// with iter.Pull, which vet's stdversion check requires (go.mod stays at
// go 1.22 for the nested benchmark module).  A toolchain older than go1.23
// cannot build this package.

// Package simmpi is resmod's in-process message-passing runtime — the
// stand-in for MPI in the paper's testbed.  A parallel execution of p ranks
// is p coroutines, each holding a Comm handle, that take turns on the
// goroutine which called Run: a rank runs until it must wait, and then
// parks, which hands the goroutine to the next rank of a FIFO run queue.
// Nothing in the runtime is shared between goroutines, so nothing is
// locked.  Every rank owns one inbox: a queue of the messages sent to it
// and not yet received, in arrival order.  Send appends to the
// destination's inbox and readies its owner if it is parked on exactly
// that message; Recv takes the first queued message matching its (source,
// tag) and otherwise parks.  Messages of one (source, tag) are therefore
// received in the order they were sent, and a world's memory is O(p) plus
// what is in flight, whatever its communication pattern: nothing is sized
// by pairs of ranks.
//
// The rank contract: a rank synchronises with the others only through its
// Comm.  A rank that blocks on anything else — a channel, a lock another
// rank holds, a sleep — stalls its whole world, because no other rank runs
// until it parks in a communication call or returns.
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
// readies the others.  Every collective therefore blocks until
// all ranks have entered it, the rooted ones included — MPI permits that,
// and a correct program must not rely on the opposite.  A reduction is
// folded in the order of the classic binomial tree, fixed and dependent on
// the size only, so that every execution at a given scale is bit-for-bit
// deterministic, whatever order the ranks run in.  Determinism is what
// makes the fault-injection harness able to detect rank contamination by
// exact state comparison.  Ranks that enter different collectives (or one
// collective with different operators, roots or lengths) have a bug,
// reported by a panic naming both.
//
// Fault containment: if any rank panics, returns an error, or the world
// hangs, the whole world aborts; every rank parked in a communication
// call — on its inbox or at the rendezvous — is released.  A hang is a
// world in which no rank can run (reported at once) or one still running
// when its watchdog expires.  Communication calls signal the abort
// by panicking with an internal sentinel that Run translates back into an
// error, so application code can be written without per-call error plumbing
// — the style real MPI codes use (MPI_Abort semantics).  A rank that has
// seen the rest of the run is not needed ends the world the same way
// without failing it (Comm.Stop).
package simmpi

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"math/rand/v2"
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
	// ErrTimeout reports that the execution hung: the watchdog fired, or
	// every unfinished rank was blocked in a communication call that no
	// other rank could complete (a deadlock, reported at once).
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
	// errStopped is the failure of a world a rank stopped (Comm.Stop),
	// which run reports as none.
	errStopped = errors.New("simmpi: world stopped")
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

// inbox is one rank's receive queue.  Any rank appends; only the owning
// rank removes.
type inbox struct {
	// q holds the unreceived messages in arrival order.
	q []message

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

// perturbSeed, when not zero, makes every world pop its ready ranks in an
// order drawn from it instead of FIFO, so that a result which depends on
// the schedule shows.  Only tests set it.
var perturbSeed uint64

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

// world is one simulated execution's state and its scheduler: the ranks,
// each a coroutine made on the world's first run and kept for the next,
// their inboxes, the rendezvous, and the queue of ranks ready to run.
// Only one rank, or run between them, executes at a time, so nothing in it
// is locked.
type world struct {
	ranks   []Comm  // by world rank
	inboxes []inbox // by world rank
	root    rendezvous
	timeout time.Duration

	// queue is a ring of the ready ranks, head first; a rank is in it at
	// most once.  Its length is a power of two, so that a position wraps
	// with a mask (a division costs as much as the rest of a wake).
	queue        []int
	head, queued int
	fn           func(c *Comm) error
	ctx          context.Context
	start        time.Time // of the current run, for the watchdog
	failure      error
	shuffle      *rand.Rand // perturbSeed's order, or nil for FIFO
	live         int        // ranks of the current run not yet finished
	polls        uint       // calls to failed in the current run
}

func newWorld(cfg Config) (*world, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("simmpi: Procs must be >= 1, got %d", cfg.Procs)
	}
	p := cfg.Procs
	w := &world{ranks: make([]Comm, p), inboxes: make([]inbox, p), root: rendezvous{slots: make([]arrival, p)},
		timeout: cfg.Timeout, queue: make([]int, 1<<bits.Len(uint(p)))}
	for r := range w.ranks {
		w.ranks[r] = Comm{w: w, rank: r, size: p, wantSrc: -1, roomAt: -1}
	}
	return w, nil
}

// wake readies a parked rank: to the back of the run queue, unless it is
// active and continues when the rank it resumed yields.
func (w *world) wake(r int) {
	if w.ranks[r].parked = false; !w.ranks[r].active {
		w.queue[(w.head+w.queued)&(len(w.queue)-1)] = r
		w.queued++
	}
}

// next takes the rank to resume off the run queue: its head, or under a
// perturbation a ready rank drawn at random.
func (w *world) next() *Comm {
	if w.shuffle != nil {
		i := (w.head + w.shuffle.IntN(w.queued)) & (len(w.queue) - 1)
		w.queue[i], w.queue[w.head] = w.queue[w.head], w.queue[i]
	}
	r := w.queue[w.head]
	w.head, w.queued = (w.head+1)&(len(w.queue)-1), w.queued-1
	return &w.ranks[r]
}

// fail records the first failure and readies every parked rank, which
// resumes into the abort.
func (w *world) fail(err error) {
	if w.failure == nil {
		w.failure = err
	}
	for r := range w.ranks {
		if w.ranks[r].parked {
			w.wake(r)
		}
	}
}

// failed reports whether the world has failed, polling it first on the
// run's first call and every pollEvery-th after it: reading the clock
// costs more than most communication calls.
func (w *world) failed() bool {
	if w.polls++; w.failure == nil && w.polls%pollEvery == 1 {
		w.poll()
	}
	return w.failure != nil
}

// pollEvery spaces failed's polls.
const pollEvery = 64

// poll fails the world if its watchdog has expired or its context is done.
func (w *world) poll() {
	if w.timeout > 0 && time.Since(w.start) >= w.timeout {
		w.fail(ErrTimeout)
	} else if err := w.ctx.Err(); err != nil {
		w.fail(fmt.Errorf("%w: %w", ErrCanceled, err))
	}
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
	// Stopped reports that a rank ended the run early with Comm.Stop.
	Stopped bool
}

// Run executes fn on every rank of a freshly created world and waits for
// all ranks to finish.  It returns the first failure: a *PanicError if a
// rank panicked, ErrTimeout if the world hung, or a *RankError wrapping
// the first non-nil error returned by fn.  On success it returns nil.
func Run(cfg Config, fn func(c *Comm) error) (Stats, error) {
	return RunCtx(context.Background(), cfg, fn)
}

// RunCtx is Run under a context: when ctx is canceled (or its deadline
// passes) the world aborts promptly — every rank parked in a communication
// call is released — and the error wraps both ErrCanceled and ctx.Err().
// The context and the watchdog are polled between resumes of the ranks, in
// communication calls and once all ranks have finished, so a rank not
// communicating finishes its current compute section before observing the
// abort, and a world that overran its Timeout hung; a deadlock fails with
// ErrTimeout at once, whatever the Timeout.  No goroutine of the world
// outlives the call.
func RunCtx(ctx context.Context, cfg Config, fn func(c *Comm) error) (Stats, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return Stats{}, err
	}
	defer w.close()
	return w.run(ctx, fn)
}

// exec is one rank's part of a run: fn, with whatever stops it turned into
// the world's failure.
func (c *Comm) exec() {
	defer func() {
		if v := recover(); v != nil {
			if _, isAbort := v.(abortPanic); !isAbort {
				c.w.fail(&PanicError{Rank: c.rank, Value: v})
			}
		}
	}()
	if err := c.w.fn(c); err != nil {
		c.w.fail(&RankError{Rank: c.rank, Err: err})
	}
}

// body is the rank's coroutine: one exec per run, for as long as the
// world lives.
func (c *Comm) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.exec()
		if !yield(struct{}{}) {
			return
		}
	}
}

// resume runs rank c until it yields: parked with no other rank ready, or
// finished.
func (w *world) resume(c *Comm) {
	if c.resume == nil {
		c.resume, c.stop = iter.Pull(c.body)
	}
	c.active = true
	c.resume()
	if c.active = false; !c.parked {
		w.live--
	}
	w.failed() // the watchdog and the context, between resumes
}

// run executes fn on every rank, resuming them from the run queue on the
// calling goroutine until all have finished, and returns the world's
// failure.  When ranks remain but none is ready, the world is deadlocked:
// it fails, and the parked ranks resume into the abort.
func (w *world) run(ctx context.Context, fn func(c *Comm) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w.fn, w.ctx, w.failure, w.live, w.polls, w.start = fn, ctx, nil, len(w.ranks), 0, time.Now()
	if w.shuffle = nil; perturbSeed != 0 {
		w.shuffle = rand.New(rand.NewPCG(perturbSeed, 0))
	}
	for r := range w.ranks {
		w.wake(r)
	}
	for w.live > 0 {
		if w.queued == 0 { // every unfinished rank is parked: a deadlock
			w.poll() // unless the context or the watchdog has ended the world first
			w.fail(fmt.Errorf("%w: every unfinished rank is blocked", ErrTimeout))
		}
		w.resume(w.next())
	}
	w.poll() // a world that overran its watchdog hung, however it ended
	w.fn, w.ctx = nil, nil
	var st Stats
	if st.Stopped = w.failure == errStopped; st.Stopped {
		w.failure = nil
	}
	w.root.drain(&st)
	for i := range w.inboxes {
		in := &w.inboxes[i]
		st.Messages += in.msgs
		st.Floats += in.floats
		// The queue's backing array is kept; the payloads it referenced
		// are not.
		clear(in.q)
		in.q, in.msgs, in.floats = in.q[:0], 0, 0
		if w.failure != nil {
			in.free = nil
		}
	}
	return st, w.failure
}

// close ends the ranks' coroutines, which are all between runs.
func (w *world) close() {
	for r := range w.ranks {
		if c := &w.ranks[r]; c.stop != nil {
			c.stop()
		}
	}
}
