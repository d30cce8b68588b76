package simmpi

import "fmt"

// Collective tags live in a reserved space far above application tags so
// user point-to-point traffic can never be confused with collective
// traffic.  Each collective call site uses a distinct base tag; repeated
// collectives of the same kind are disambiguated by the per-source FIFO
// ordering that the transport guarantees.
const (
	tagBarrier = 1 << 20
	tagBcast   = 2 << 20
	tagReduce  = 3 << 20
	tagGather  = 4 << 20
	tagScatter = 5 << 20
	tagA2A     = 6 << 20
	tagAllgat  = 7 << 20
)

// Barrier blocks until every rank has entered it (dissemination algorithm,
// ceil(log2 p) rounds).
func (c *Comm) Barrier() {
	for k, round := 1, 0; k < c.size; k, round = k<<1, round+1 {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		c.Send(dst, tagBarrier+round, nil)
		c.Recv(src, tagBarrier+round)
	}
}

// The binomial tree of a rooted collective lives in the rotated space where
// root is virtual rank 0.  A rank's parent clears the lowest set bit of its
// virtual rank; its children set one bit below that bit (any bit, for the
// root).  Children are visited for k = 1, 2, 4, … while hasChild holds, and
// that order is Reduce's fold order — the reduction's bits depend on it.
func (c *Comm) vrank(root int) int { return (c.rank - root + c.size) % c.size }

func (c *Comm) treeParent(vrank, root int) int { return (vrank&(vrank-1) + root) % c.size }

func hasChild(vrank, k, size int) bool { return vrank&k == 0 && vrank|k < size }

// sendChildren sends buf to each of this rank's children in root's tree.
func (c *Comm) sendChildren(root, vrank, tag int, buf []float64) {
	for k := 1; hasChild(vrank, k, c.size); k <<= 1 {
		c.Send((vrank|k+root)%c.size, tag, buf)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy.  Non-root callers pass their (ignored) local
// slice or nil; the broadcast payload is returned.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	c.checkPeer(root, "Bcast")
	vrank := c.vrank(root)
	var buf []float64
	if vrank == 0 {
		buf = make([]float64, len(data))
		copy(buf, data)
	} else {
		// The length is the root's to say, so this rank keeps the payload.
		buf = c.Recv(c.treeParent(vrank, root), tagBcast)
	}
	c.sendChildren(root, vrank, tagBcast, buf)
	return buf
}

// bcastInto is Bcast when every rank knows the length: root's buf is
// delivered into every other rank's buf.
func (c *Comm) bcastInto(root int, buf []float64) {
	vrank := c.vrank(root)
	if vrank != 0 {
		c.RecvInto(c.treeParent(vrank, root), tagBcast, buf)
	}
	c.sendChildren(root, vrank, tagBcast, buf)
}

// Reduce folds every rank's data element-wise with op into root and returns
// the result on root (nil elsewhere).  The fold order is fixed by the
// binomial tree, so results are bit-for-bit deterministic for a given size.
func (c *Comm) Reduce(root int, op Op, data []float64) []float64 {
	c.checkPeer(root, "Reduce")
	acc := make([]float64, len(data))
	copy(acc, data)
	c.reduceInto(root, op, acc)
	if c.rank != root {
		return nil
	}
	return acc
}

// reduceInto is Reduce in place: acc holds this rank's contribution and, on
// return, the fold of its subtree — the result, on root.  Each child's
// contribution is folded in straight from its message, children in
// ascending bit order, before the subtree's goes to the parent.
func (c *Comm) reduceInto(root int, op Op, acc []float64) {
	vrank := c.vrank(root)
	for k := 1; hasChild(vrank, k, c.size); k <<= 1 {
		c.recvFold((vrank|k+root)%c.size, tagReduce, op, acc)
	}
	if vrank != 0 {
		c.Send(c.treeParent(vrank, root), tagReduce, acc)
	}
}

// AllreduceInto reduces data in place: reduceInto to rank 0 followed by
// bcastInto, guaranteeing that every rank observes the identical
// (bit-for-bit) reduced vector.
func (c *Comm) AllreduceInto(op Op, data []float64) {
	c.reduceInto(0, op, data)
	c.bcastInto(0, data)
}

// Allreduce is AllreduceInto a new vector, leaving data alone.
func (c *Comm) Allreduce(op Op, data []float64) []float64 {
	out := make([]float64, len(data))
	copy(out, data)
	c.AllreduceInto(op, out)
	return out
}

// AllreduceValue reduces a single scalar, on the caller's stack.
func (c *Comm) AllreduceValue(op Op, v float64) float64 {
	buf := [1]float64{v}
	c.AllreduceInto(op, buf[:])
	return buf[0]
}

// Gather collects each rank's equal-length contribution on root, ordered by
// rank.  It returns the concatenation on root and nil elsewhere.
func (c *Comm) Gather(root int, data []float64) []float64 {
	c.checkPeer(root, "Gather")
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([]float64, len(data)*c.size)
	c.gatherInto(out, data)
	return out
}

// gatherInto is the root's side of Gather: its own data and every other
// rank's message, in rank order, straight into dst.
func (c *Comm) gatherInto(dst, data []float64) {
	n := len(data)
	if len(dst) != n*c.size {
		panic(fmt.Sprintf("simmpi: gather of %d ranks x %d values into %d", c.size, n, len(dst)))
	}
	for r := 0; r < c.size; r++ {
		if seg := dst[r*n : (r+1)*n]; r == c.rank {
			copy(seg, data)
		} else {
			c.RecvInto(r, tagGather, seg)
		}
	}
}

// AllgatherInto is Gather to rank 0 followed by Bcast, into dst, which
// every rank sizes to Size() times its (equal-length) contribution.
func (c *Comm) AllgatherInto(dst, data []float64) {
	if c.rank == 0 {
		c.gatherInto(dst, data)
	} else {
		c.Send(0, tagGather, data)
	}
	c.bcastInto(0, dst)
}

// Allgather is Gather to rank 0 followed by Bcast: the vector it returns is
// the broadcast's own payload, kept, where AllgatherInto holds a rank's copy
// twice — in dst, and in the recycled buffer it arrived in.
func (c *Comm) Allgather(data []float64) []float64 {
	return c.Bcast(0, c.Gather(0, data))
}

// Scatter splits root's data into size equal chunks and delivers chunk r to
// rank r.  It panics if len(data) on root is not divisible by size.
func (c *Comm) Scatter(root int, data []float64) []float64 {
	c.checkPeer(root, "Scatter")
	if c.rank == root {
		if len(data)%c.size != 0 {
			panic(fmt.Sprintf("simmpi: Scatter: %d values not divisible by %d ranks",
				len(data), c.size))
		}
		n := len(data) / c.size
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			c.Send(r, tagScatter, data[r*n:(r+1)*n])
		}
		out := make([]float64, n)
		copy(out, data[root*n:(root+1)*n])
		return out
	}
	return c.Recv(root, tagScatter)
}

// Alltoall performs a complete exchange: send[r] goes to rank r, and the
// returned slice holds recv[r] from each rank r.  The shifted-pairwise
// schedule (step k pairs rank with rank±k) avoids hot spots and is
// deterministic.
func (c *Comm) Alltoall(send [][]float64) [][]float64 {
	if len(send) != c.size {
		panic(fmt.Sprintf("simmpi: Alltoall: %d buffers for %d ranks", len(send), c.size))
	}
	recv := make([][]float64, c.size)
	// Self-exchange without touching the network.
	self := make([]float64, len(send[c.rank]))
	copy(self, send[c.rank])
	recv[c.rank] = self
	for k := 1; k < c.size; k++ {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		recv[src] = c.Sendrecv(dst, tagA2A+k, send[dst], src, tagA2A+k)
	}
	return recv
}

// AlltoallInto is Alltoall into the caller's memory: recv[r] is sized to
// exactly what rank r sends here.  The schedule, tags and message order are
// Alltoall's.
func (c *Comm) AlltoallInto(recv, send [][]float64) {
	if len(send) != c.size || len(recv) != c.size {
		panic(fmt.Sprintf("simmpi: AlltoallInto: %d and %d buffers for %d ranks",
			len(send), len(recv), c.size))
	}
	if len(recv[c.rank]) != len(send[c.rank]) {
		panic(fmt.Sprintf("simmpi: AlltoallInto: own block of %d values into %d",
			len(send[c.rank]), len(recv[c.rank])))
	}
	copy(recv[c.rank], send[c.rank])
	for k := 1; k < c.size; k++ {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		c.Send(dst, tagA2A+k, send[dst])
		c.RecvInto(src, tagA2A+k, recv[src])
	}
}
