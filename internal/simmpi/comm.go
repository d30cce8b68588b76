package simmpi

import "fmt"

// Comm is a rank's handle on the world communicator — the analog of
// MPI_COMM_WORLD.  A Comm is owned by its rank and must not be shared
// with other ranks or goroutines.
type Comm struct {
	w    *world
	rank int
	size int
	cell [1]float64 // AllreduceValue's scalar

	// The rank's coroutine: resume runs it until it yields, yield (inside
	// it) hands control back to whoever resumed it, stop ends it.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	// active is set from a resume of the rank to its next yield: while it
	// runs, and while a rank it resumed runs.
	active bool
	// parked is set while the rank waits to be woken: by a message from
	// (wantSrc, wantTag) when wantSrc >= 0, by room at inbox roomAt when
	// roomAt >= 0, otherwise by the last arrival at the rendezvous.
	parked           bool
	wantSrc, wantTag int
	roomAt           int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// checkPeer panics (via the world abort path) on an invalid peer rank;
// this is a programming error in the application, reported eagerly.
func (c *Comm) checkPeer(peer int, op string) {
	if peer < 0 || peer >= c.size {
		panic(fmt.Sprintf("simmpi: %s: peer rank %d out of range [0,%d)", op, peer, c.size))
	}
}

// checkAbort raises the abort sentinel if the world has failed, its
// watchdog has expired or its context is done.
func (c *Comm) checkAbort() {
	if c.w.failed() {
		panic(abortPanic{})
	}
}

// Stop ends the run early without failing it: the calling rank returns at
// once, every other unfinished rank in its next communication call, as on
// an abort, and the run reports Stats.Stopped and no error.  Unlike an
// abort it keeps the free lists, since no payload is left half-handled.
// After a failure it only unwinds the caller.
func (c *Comm) Stop() {
	c.w.fail(errStopped)
	panic(abortPanic{})
}

// park suspends the rank until the world wakes it, and raises the abort
// sentinel if it was woken by a failure.  While it waits it resumes the
// ranks that are ready, so that control passes from rank to rank in one
// switch instead of two through run; only with none ready does it yield
// to its own resumer.
func (c *Comm) park() {
	for c.parked = true; c.parked; {
		if c.w.queued > 0 {
			c.w.resume(c.w.next())
		} else if !c.yield(struct{}{}) {
			panic(abortPanic{}) // the world was closed under a parked rank
		}
	}
	c.wantSrc, c.roomAt = -1, -1
	c.checkAbort()
}

// Send delivers a copy of data to dst with the given tag.  It blocks only
// while pairCap of this rank's messages sit unreceived at dst
// (backpressure).  Sending to oneself is allowed (buffered).  The copy is
// made into one of dst's free buffers when one fits.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.checkPeer(dst, "Send")
	c.checkAbort()
	in := &c.w.inboxes[dst]
	for in.full(c.rank) {
		c.roomAt = dst
		c.park()
	}
	cp := in.grab(len(data))
	copy(cp, data)
	in.q = append(in.q, message{src: c.rank, tag: tag, data: cp})
	in.msgs++
	in.floats += uint64(len(cp))
	if d := &c.w.ranks[dst]; d.parked && d.wantSrc == c.rank && d.wantTag == tag {
		c.w.wake(dst)
	}
}

// await blocks until a message with the given tag from src is queued in
// this rank's inbox, removes it, and returns its payload.
func (c *Comm) await(src, tag int) []float64 {
	c.checkAbort()
	in := &c.w.inboxes[c.rank]
	// seen counts the queued messages already found not to match; only
	// this rank removes, so they stay the first seen of the queue.
	for seen := 0; ; {
		for ; seen < len(in.q); seen++ {
			if m := in.q[seen]; m.src == src && m.tag == tag {
				in.take(seen)
				if s := &c.w.ranks[src]; s.parked && s.roomAt == c.rank {
					c.w.wake(src)
				}
				return m.data
			}
		}
		c.wantSrc, c.wantTag = src, tag
		c.park()
	}
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload, which is the caller's to keep.  Other messages stay
// queued in the rank's inbox, available to later receives, so order is
// preserved per (source, tag).
func (c *Comm) Recv(src, tag int) []float64 {
	c.checkPeer(src, "Recv")
	return c.await(src, tag)
}

// RecvInto is Recv into the caller's memory: it copies the payload over
// dst, and panics unless the message has exactly len(dst) values.  The
// payload's buffer stays with the runtime for a later Send to reuse, so a
// loop that receives this way allocates nothing.
func (c *Comm) RecvInto(src, tag int, dst []float64) {
	c.checkPeer(src, "RecvInto")
	data := c.await(src, tag)
	opCopy.apply(dst, data)
	c.w.inboxes[c.rank].recycle(data, len(c.w.inboxes)+freeSlack)
}

// Sendrecv sends sendData to dst with sendTag and receives a message with
// recvTag from src, in a deadlock-free way (the send buffers).
func (c *Comm) Sendrecv(dst, sendTag int, sendData []float64, src, recvTag int) []float64 {
	c.Send(dst, sendTag, sendData)
	return c.Recv(src, recvTag)
}

// SendValue sends a single-scalar message.
func (c *Comm) SendValue(dst, tag int, v float64) { c.Send(dst, tag, []float64{v}) }

// RecvValue receives a single-scalar message.
func (c *Comm) RecvValue(src, tag int) float64 {
	var v [1]float64
	c.RecvInto(src, tag, v[:])
	return v[0]
}
