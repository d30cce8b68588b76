package simmpi

import (
	"fmt"
	"slices"
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
}

func (a *arrival) String() string {
	return fmt.Sprintf("%s(op %v, root %d, %d values)", a.kind, a.op, a.root, a.n)
}

// rendezvous is where the world's ranks meet for a collective: each
// publishes its arrival in its own slot and parks; the last to arrive moves
// all the data, between the published buffers, and readies the others.  A
// slot is written by its rank on arrival and by the last arriver, and is
// not touched again before its rank's next arrival — which is where the
// rank reads its result from.
type rendezvous struct {
	slots   []arrival // by rank
	arrived int       // ranks parked in the current collective
	first   int       // the first of them, which the others must match
	gen     uint64    // collectives met for and completed
	floats  uint64    // values they moved between ranks
}

// drain adds to st what passed through r and forgets the run, an
// unfinished collective included.
func (r *rendezvous) drain(st *Stats) {
	st.Messages += r.gen * uint64(len(r.slots))
	st.Floats += r.floats
	clear(r.slots) // and with them the last collective's buffers
	r.gen, r.floats, r.arrived = 0, 0, 0
}

// meet enters the collective a describes and returns, with the rank's out,
// once every rank has entered it and the data has moved.  An arrival that
// differs from the collective the others are in panics; on a one-rank
// world nobody is met and nothing is counted.
func (c *Comm) meet(a arrival) []float64 {
	c.checkPeer(a.root, a.kind)
	c.checkAbort()
	r := &c.w.root
	me := &r.slots[c.rank]
	*me = a
	if r.arrived == 0 {
		r.first = c.rank
	} else if f := &r.slots[r.first]; me.kind != f.kind || me.op != f.op || me.root != f.root || me.n != f.n {
		panic(fmt.Sprintf("simmpi: rank %d entered %v while rank %d is in %v", c.rank, me, r.first, f))
	}
	if r.arrived++; r.arrived < c.size {
		c.park()
		return me.out
	}
	r.complete()
	r.arrived = 0
	if c.size > 1 {
		r.gen++
	}
	for i := range r.slots {
		c.w.wake(i) // this rank, active, goes on
	}
	return me.out
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

// Every collective blocks until all ranks have entered it — the rooted
// ones too, which MPI permits and a correct program does not notice.

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
