package simmpi

import (
	"fmt"
	"slices"
	"sync"
)

// arrival is what one rank publishes on entering a collective.  kind, op,
// root and n (the length every rank's contribution must have, 0 where the
// kind fixes none) must be the same on every rank; the buffers are the
// rank's own.
type arrival struct {
	kind string // the collective's name
	op   Op
	root int
	n    int
	// in is the rank's contribution and out where its result goes.  The
	// allocating forms whose result's length or place only the root knows
	// (Bcast, Scatter, Reduce, Gather) leave out nil and are handed it.
	in, out []float64
	// ins and outs are Alltoall's blocks by peer; with alloc set, outs is
	// filled with new blocks instead of being copied into.
	ins, outs [][]float64
	alloc     bool
	// sub and members are Split's result: the new communicator's
	// rendezvous and its ranks in this one, by new rank.
	sub     *rendezvous
	members []int
}

func (a *arrival) String() string {
	return fmt.Sprintf("%s(op %v, root %d, %d values)", a.kind, a.op, a.root, a.n)
}

// rendezvous is where the ranks of one communicator meet for a collective:
// each publishes its arrival in its own slot and parks on its own channel;
// the last to arrive moves all the data, between the published buffers, and
// sends every other rank the token that releases it.  A slot is written by
// its rank on arrival and by the last arriver until the release, and is not
// touched again before its rank's next arrival — which is why a rank reads
// its result out of it unlocked.  One wait queue for all the ranks
// (sync.Cond, sync.WaitGroup) costs the same at p = 64 and twice as much at
// p = 1024, where every park and wake contends for its one runtime lock.
type rendezvous struct {
	mu      sync.Mutex
	slots   []arrival       // by communicator rank
	parked  []chan struct{} // by rank: holds a token only while its rank is due to wake
	arrived int             // ranks parked in the current collective
	first   int             // the first of them, which the others must match
	gen     uint64          // collectives met for and completed
	floats  uint64          // values they moved between ranks
	subs    []*rendezvous   // of the communicators Split off this one
}

func newRendezvous(size int) *rendezvous {
	r := &rendezvous{slots: make([]arrival, size), parked: make([]chan struct{}, size)}
	for i := range r.parked {
		r.parked[i] = make(chan struct{}, 1)
	}
	return r
}

// wake releases the ranks parked here and at every rendezvous split off
// this one to look at the world's failure.  Under the lock no collective is
// half done, a Split that makes more included, and no rank is about to be
// counted in.  The tokens left over make the rendezvous unfit for another
// run.
func (r *rendezvous) wake() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ch := range r.parked {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	for _, s := range r.subs {
		s.wake()
	}
}

// drain adds to st what passed through r and the rendezvous split off it,
// and forgets the run.
func (r *rendezvous) drain(st *Stats) {
	st.Messages += r.gen * uint64(len(r.slots))
	st.Floats += r.floats
	for _, s := range r.subs {
		s.drain(st)
	}
	clear(r.slots) // and with them the last collective's buffers
	r.gen, r.floats, r.subs = 0, 0, nil
}

// meet enters the collective a describes and returns, with the rank's out,
// once every rank of the communicator has entered it and the data has
// moved.  An arrival that differs from the collective the others are in
// panics; a one-rank communicator meets nobody and takes no lock.
func (c *Comm) meet(a arrival) []float64 {
	c.checkPeer(a.root, a.kind)
	r, me := c.rv, &c.rv.slots[c.rank]
	*me = a
	switch {
	case c.size == 1:
		r.complete()
	case c.arrive(me):
		// Not under the lock, which the released ranks soon want again.
		for i, ch := range r.parked {
			if i != c.rank {
				ch <- struct{}{}
			}
		}
	default:
		<-r.parked[c.rank]
		c.checkAbort()
	}
	return me.out
}

// arrive counts the rank in and reports whether it was the last to arrive,
// having then done the collective's work.
func (c *Comm) arrive(me *arrival) (last bool) {
	r := c.rv
	r.mu.Lock()
	defer r.mu.Unlock()
	c.checkAbort()
	if r.arrived == 0 {
		r.first = c.rank
	} else if f := &r.slots[r.first]; me.kind != f.kind || me.op != f.op || me.root != f.root || me.n != f.n {
		panic(fmt.Sprintf("simmpi: rank %d entered %v while rank %d is in %v", c.rank, me, r.first, f))
	}
	if r.arrived++; r.arrived < c.size {
		return false
	}
	r.complete()
	r.arrived = 0
	r.gen++
	return true
}

// hasChild reports whether vrank|k is a child of vrank in the binomial tree
// over size ranks: a rank's children set one bit below its lowest set bit
// (any bit, for rank 0), visited for k = 1, 2, 4, … while hasChild holds.
func hasChild(vrank, k, size int) bool { return vrank&k == 0 && vrank|k < size }

// complete is the last arriver's work: the whole collective, over the
// buffers in the slots, which all describe one collective.
func (r *rendezvous) complete() {
	s, p := r.slots, len(r.slots)
	kind, op, root, n := s[0].kind, s[0].op, s[0].root, s[0].n
	// moved counts the values that pass from one rank's buffers to
	// another's beyond the n that p-1 ranks send or receive in every kind.
	moved := 0
	switch kind {
	case "Bcast":
		n = len(s[root].in)
		for i := range s {
			s[i].out = slices.Clone(s[root].in)
		}
	case "Scatter":
		n = len(s[root].in) / p
		for i := range s {
			s[i].out = slices.Clone(s[root].in[i*n : (i+1)*n])
		}
	case "Reduce", "Allreduce":
		// The fold of a binomial tree in the space rotated so that root is
		// 0: every rank folds its children's subtrees into its own buffer
		// in ascending bit order, children before parents.  A reduction's
		// bits are this order's.
		for v := p - 1; v >= 0; v-- {
			for k := 1; hasChild(v, k, p); k <<= 1 {
				op.apply(s[(v+root)%p].in, s[(v|k+root)%p].in)
			}
		}
		if kind == "Reduce" {
			s[root].out = s[root].in
		}
	case "Gather", "Allgather":
		if kind == "Gather" {
			s[root].out = make([]float64, p*n)
		}
		for i := range s {
			copy(s[root].out[i*n:(i+1)*n], s[i].in)
		}
	case "Split":
		// Ranks in (color, key, rank) order: every run of one color is a
		// new communicator's members, by new rank.
		order := make([]int, p)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(s[a].in, s[b].in) })
		for lo, hi := 0, 0; lo < p; lo = hi {
			for hi < p && s[order[hi]].in[0] == s[order[lo]].in[0] {
				hi++
			}
			sub := newRendezvous(hi - lo)
			r.subs = append(r.subs, sub)
			for _, i := range order[lo:hi] {
				s[i].sub, s[i].members = sub, order[lo:hi]
			}
		}
	case "Alltoall":
		for d := range s {
			for i := range s {
				blk := s[i].ins[d]
				if s[d].alloc {
					s[d].outs[i] = slices.Clone(blk)
				} else {
					opCopy.apply(s[d].outs[i], blk)
				}
				if i != d {
					moved += len(blk)
				}
			}
		}
	}
	if kind == "Allreduce" || kind == "Allgather" {
		// The result stands in rank 0's out; the others copy it whole.
		for i := 1; i < p; i++ {
			copy(s[i].out, s[0].out)
		}
		moved += (p - 1) * len(s[0].out)
	}
	r.floats += uint64(moved + (p-1)*n)
}

// Every collective blocks until all ranks of the communicator have entered
// it — the rooted ones too, which MPI permits and a correct program does
// not notice.

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.meet(arrival{kind: "Barrier"}) }

// Bcast distributes root's data to every rank and returns each rank's copy.
// Non-root callers pass their (ignored) local slice or nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	return c.meet(arrival{kind: "Bcast", root: root, in: data})
}

// Reduce folds every rank's data element-wise with op into root and returns
// the result on root (nil elsewhere).  The fold order is that of a binomial
// tree rooted at root, so results are bit-for-bit deterministic for a given
// size.
func (c *Comm) Reduce(root int, op Op, data []float64) []float64 {
	return c.meet(arrival{kind: "Reduce", op: op, root: root, n: len(data), in: slices.Clone(data)})
}

// AllreduceInto reduces data in place, in Reduce's order to rank 0, and
// every rank observes the identical (bit-for-bit) reduced vector.
func (c *Comm) AllreduceInto(op Op, data []float64) {
	c.meet(arrival{kind: "Allreduce", op: op, n: len(data), in: data, out: data})
}

// Allreduce is AllreduceInto a new vector, leaving data alone.
func (c *Comm) Allreduce(op Op, data []float64) []float64 {
	out := slices.Clone(data)
	c.AllreduceInto(op, out)
	return out
}

// AllreduceValue reduces a single scalar, in the handle's own cell: one on
// the caller's stack would escape to the heap on being published.
func (c *Comm) AllreduceValue(op Op, v float64) float64 {
	c.cell[0] = v
	c.AllreduceInto(op, c.cell[:])
	return c.cell[0]
}

// Gather collects each rank's equal-length contribution on root, ordered by
// rank.  It returns the concatenation on root and nil elsewhere.
func (c *Comm) Gather(root int, data []float64) []float64 {
	return c.meet(arrival{kind: "Gather", root: root, n: len(data), in: data})
}

// AllgatherInto gathers every rank's equal-length contribution, ordered by
// rank, into dst, which every rank sizes to Size() times its own.
func (c *Comm) AllgatherInto(dst, data []float64) {
	if len(dst) != len(data)*c.size {
		panic(fmt.Sprintf("simmpi: gather of %d ranks x %d values into %d", c.size, len(data), len(dst)))
	}
	c.meet(arrival{kind: "Allgather", n: len(data), in: data, out: dst})
}

// Allgather is AllgatherInto a new vector.
func (c *Comm) Allgather(data []float64) []float64 {
	out := make([]float64, len(data)*c.size)
	c.AllgatherInto(out, data)
	return out
}

// Scatter splits root's data into size equal chunks and delivers chunk r to
// rank r.  It panics if len(data) on root is not divisible by size.
func (c *Comm) Scatter(root int, data []float64) []float64 {
	if c.rank == root && len(data)%c.size != 0 {
		panic(fmt.Sprintf("simmpi: Scatter: %d values not divisible by %d ranks", len(data), c.size))
	}
	return c.meet(arrival{kind: "Scatter", root: root, in: data})
}

// Alltoall performs a complete exchange: send[r] goes to rank r, and the
// returned slice holds recv[r] from each rank r.
func (c *Comm) Alltoall(send [][]float64) [][]float64 {
	recv := make([][]float64, c.size)
	c.alltoall(arrival{kind: "Alltoall", ins: send, outs: recv, alloc: true})
	return recv
}

// AlltoallInto is Alltoall into the caller's memory: recv[r] is sized to
// exactly what rank r sends here.
func (c *Comm) AlltoallInto(recv, send [][]float64) {
	c.alltoall(arrival{kind: "Alltoall", ins: send, outs: recv})
}

func (c *Comm) alltoall(a arrival) {
	if len(a.ins) != c.size || len(a.outs) != c.size {
		panic(fmt.Sprintf("simmpi: Alltoall: %d and %d buffers for %d ranks", len(a.ins), len(a.outs), c.size))
	}
	c.meet(a)
}
