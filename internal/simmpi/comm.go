package simmpi

import "fmt"

// Comm is a rank's handle on a communicator — the analog of an MPI
// communicator handle.  The root communicator spans the world
// (MPI_COMM_WORLD); Split derives sub-communicators that renumber ranks,
// isolate their point-to-point traffic in a private tag space and meet for
// collectives at a rendezvous of their own.  A Comm is owned by its rank
// goroutine and must not be shared between goroutines.
type Comm struct {
	w    *world
	rank int
	size int
	rv   *rendezvous // shared by the communicator's ranks
	cell [1]float64  // AllreduceValue's scalar

	// Sub-communicator state (nil/zero on the root communicator).
	parent   *Comm
	members  []int // world... parent ranks of this group, by new rank
	tagShift int
}

// Rank returns this rank's id in [0, Size) within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return c.size }

// checkPeer panics (via the world abort path) on an invalid peer rank;
// this is a programming error in the application, reported eagerly.
func (c *Comm) checkPeer(peer int, op string) {
	if peer < 0 || peer >= c.size {
		panic(fmt.Sprintf("simmpi: %s: peer rank %d out of range [0,%d)", op, peer, c.size))
	}
}

// checkAbort raises the abort sentinel if the world has failed.
func (c *Comm) checkAbort() {
	if c.w.err() != nil {
		panic(abortPanic{})
	}
}

// worldRank returns this rank's id in the world communicator.
func (c *Comm) worldRank() int {
	r, _ := c.translate(c.rank, 0)
	return r
}

// Send delivers a copy of data to dst with the given tag.  It blocks only
// while pairCap of this rank's messages sit unreceived at dst
// (backpressure).  Sending to oneself is allowed (buffered).  The copy is
// made into one of dst's free buffers when one fits, under the inbox lock
// the send takes anyway.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.checkPeer(dst, "Send")
	c.checkAbort()
	wdst, wtag := c.translate(dst, tag)
	src := c.worldRank()
	in := &c.w.inboxes[wdst]
	in.mu.Lock()
	for in.full(src) {
		if c.w.err() != nil {
			in.mu.Unlock()
			panic(abortPanic{})
		}
		in.blocked++
		in.room.Wait()
		in.blocked--
	}
	cp := in.grab(len(data))
	copy(cp, data)
	in.q = append(in.q, message{src: src, tag: wtag, data: cp})
	in.msgs++
	in.floats += uint64(len(cp))
	if in.parked && in.wantSrc == src && in.wantTag == wtag {
		in.arrive.Signal()
	}
	in.mu.Unlock()
}

// await blocks until a message with the given tag from src is queued in
// this rank's inbox, removes it, and returns its payload with the inbox
// still locked: the caller unlocks once it has dealt with the payload.
func (c *Comm) await(src, tag int) (*inbox, []float64) {
	wsrc, wtag := c.translate(src, tag)
	in := &c.w.inboxes[c.worldRank()]
	in.mu.Lock()
	// seen counts the queued messages already found not to match; only
	// this goroutine removes, so they stay the first seen of the queue.
	for seen := 0; ; {
		for ; seen < len(in.q); seen++ {
			if m := in.q[seen]; m.src == wsrc && m.tag == wtag {
				in.take(seen)
				if in.blocked > 0 {
					in.room.Broadcast()
				}
				return in, m.data
			}
		}
		if c.w.err() != nil {
			in.mu.Unlock()
			panic(abortPanic{})
		}
		in.parked, in.wantSrc, in.wantTag = true, wsrc, wtag
		in.arrive.Wait()
		in.parked = false
	}
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload, which is the caller's to keep.  Other messages stay
// queued in the rank's inbox, available to later receives (including on
// other communicators of this rank, which share it: their tag spaces are
// disjoint), so order is preserved per (source, tag).
func (c *Comm) Recv(src, tag int) []float64 {
	c.checkPeer(src, "Recv")
	in, data := c.await(src, tag)
	in.mu.Unlock()
	return data
}

// RecvInto is Recv into the caller's memory: it copies the payload over
// dst, and panics unless the message has exactly len(dst) values.  The
// payload's buffer stays with the runtime for a later Send to reuse, so a
// loop that receives this way allocates nothing.
func (c *Comm) RecvInto(src, tag int, dst []float64) {
	c.checkPeer(src, "RecvInto")
	in, data := c.await(src, tag)
	// apply panics on a length mismatch, and the abort that panic starts
	// takes this lock.
	defer in.mu.Unlock()
	opCopy.apply(dst, data)
	in.recycle(data, len(c.w.inboxes)+freeSlack)
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
