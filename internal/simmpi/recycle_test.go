package simmpi

import (
	"context"
	"errors"
	"math"
	"testing"

	"resmod/internal/race"
)

// bcastChildrenRef is the enumeration the collectives used before they
// walked the tree in place, kept as the reference: the binomial-tree
// children of a virtual rank are vrank | 1<<k for every k below the
// position of vrank's lowest set bit (all k for the root), in ascending k.
func bcastChildrenRef(vrank, size int) []int {
	var kids []int
	limit := 0
	if vrank != 0 {
		for vrank&(1<<limit) == 0 {
			limit++
		}
	} else {
		limit = 31
	}
	for k := 0; k < limit; k++ {
		child := vrank | (1 << k)
		if child != vrank && child < size {
			kids = append(kids, child)
		}
	}
	return kids
}

// TestTreeChildrenOrder pins the in-place walk of the binomial tree — the
// order is Reduce's fold order — against the reference enumeration, and
// then pins Reduce itself: its bits must be those of the serial fold taken
// in the reference order, on values whose sum depends on the order.
func TestTreeChildrenOrder(t *testing.T) {
	for _, p := range []int{2, 3, 8, 13, 64} {
		for vrank := 0; vrank < p; vrank++ {
			var got []int
			for k := 1; hasChild(vrank, k, p); k <<= 1 {
				got = append(got, vrank|k)
			}
			want := bcastChildrenRef(vrank, p)
			if len(got) != len(want) {
				t.Fatalf("p=%d vrank=%d: children %v, want %v", p, vrank, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("p=%d vrank=%d: children %v, want %v", p, vrank, got, want)
				}
			}
		}

		value := func(rank int) float64 { return math.Pow(-7, float64(rank%23-11)) / 3 }
		var fold func(vrank int) float64
		fold = func(vrank int) float64 {
			acc := value(vrank)
			for _, child := range bcastChildrenRef(vrank, p) {
				acc += fold(child)
			}
			return acc
		}
		want := math.Float64bits(fold(0))
		runOrFatal(t, p, func(c *Comm) error {
			if got := math.Float64bits(c.AllreduceValue(OpSum, value(c.Rank()))); got != want {
				t.Errorf("p=%d rank %d: allreduce bits %x, reference fold %x", p, c.Rank(), got, want)
			}
			return nil
		})
	}
}

func TestRecvIntoCopiesPayload(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2, 3})
			return nil
		}
		dst := []float64{9, 9, 9}
		c.RecvInto(0, 3, dst)
		if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
			t.Errorf("RecvInto = %v", dst)
		}
		return nil
	})
}

// TestRecvIntoWrongLengthPanics: a destination that is not the message's
// length is a program bug, reported through the world's failure path — and
// the lock the receive held must not wedge that path.
func TestRecvIntoWrongLengthPanics(t *testing.T) {
	for _, n := range []int{2, 4} {
		_, err := Run(Config{Procs: 2}, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 3, []float64{1, 2, 3})
				c.Recv(1, 4) // never sent: released by the abort
				return nil
			}
			c.RecvInto(0, 3, make([]float64, n))
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Rank != 1 {
			t.Fatalf("len %d: err = %v, want rank 1's PanicError", n, err)
		}
	}
}

// ownFree returns a copy of the calling rank's free list.
func ownFree(c *Comm) [][]float64 {
	return append([][]float64(nil), c.w.inboxes[c.rank].free...)
}

// TestFreeListMatchesBySize: a small message must not take a large
// message's buffer (the large one's next Send would have to allocate), and
// a message of the same size takes it back.
func TestFreeListMatchesBySize(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		big, small := make([]float64, 1024), make([]float64, 1)
		if c.Rank() == 0 {
			c.Send(1, 1, big)
			c.Recv(1, 9) // rank 1 has looked at its free list
			c.Send(1, 2, small)
			c.Recv(1, 9)
			c.Send(1, 3, big[:600]) // more than half: the buffer fits
			return nil
		}
		c.RecvInto(0, 1, big)
		free := ownFree(c)
		if len(free) != 1 || cap(free[0]) != 1024 {
			t.Errorf("after one RecvInto: free list %d long", len(free))
		}
		c.Send(0, 9, nil)
		c.RecvInto(0, 2, small)
		free = ownFree(c)
		if len(free) != 2 {
			t.Errorf("the scalar took the vector's buffer: free list %d long, want 2", len(free))
		}
		c.Send(0, 9, nil)
		c.RecvInto(0, 3, big[:600])
		if free = ownFree(c); len(free) != 2 {
			t.Errorf("a 600-value message did not reuse the 1024 buffer: free list %d long", len(free))
		}
		return nil
	})
}

// TestFreeListBounded: however many buffers a rank has had in flight, it
// keeps at most one per rank plus freeSlack.
func TestFreeListBounded(t *testing.T) {
	const p, n = 2, 100
	runOrFatal(t, p, func(c *Comm) error {
		v := []float64{1, 2}
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, v)
			}
			c.Send(1, 2, nil)
			return nil
		}
		c.Recv(0, 2) // all n are queued: no Send will take a buffer back
		for i := 0; i < n; i++ {
			c.RecvInto(0, 1, v)
		}
		if got := len(ownFree(c)); got != p+freeSlack {
			t.Errorf("free list holds %d buffers after %d receives, want %d", got, n, p+freeSlack)
		}
		return nil
	})
}

// TestRecvKeepsOwnership: a slice Recv returned is the caller's for good —
// no later traffic may write to it, poisoned recycling included.
func TestRecvKeepsOwnership(t *testing.T) {
	poisonFreed = true
	defer func() { poisonFreed = false }()
	runOrFatal(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		c.Send(peer, 1, []float64{4, 5, 6})
		kept := c.Recv(peer, 1)
		for i := 0; i < 50; i++ {
			c.Send(peer, 2, []float64{float64(i), 0, 0})
			var into [3]float64
			c.RecvInto(peer, 2, into[:])
			if into[0] != float64(i) {
				t.Errorf("rank %d round %d: RecvInto = %v", c.Rank(), i, into)
			}
		}
		if kept[0] != 4 || kept[1] != 5 || kept[2] != 6 {
			t.Errorf("rank %d: Recv's slice changed under its owner: %v", c.Rank(), kept)
		}
		return nil
	})
}

// TestIntoCollectivesMatchAllocating: every ...Into collective delivers
// what its allocating form does.
func TestIntoCollectivesMatchAllocating(t *testing.T) {
	for _, p := range testSizes {
		runOrFatal(t, p, func(c *Comm) error {
			me := float64(c.Rank())
			data := []float64{me + 0.5, -me, 1 / (me + 3)}

			red := append([]float64(nil), data...)
			c.AllreduceInto(OpSum, red)
			gat := make([]float64, len(data)*p)
			c.AllgatherInto(gat, data)
			send, recv := make([][]float64, p), make([][]float64, p)
			for r := range send {
				send[r] = []float64{me*100 + float64(r), me}
				recv[r] = make([]float64, 2)
			}
			c.AlltoallInto(recv, send)

			same := func(what string, got, want []float64) {
				if len(got) != len(want) {
					t.Errorf("p=%d rank %d %s: %v, want %v", p, c.Rank(), what, got, want)
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("p=%d rank %d %s: %v, want %v", p, c.Rank(), what, got, want)
						return
					}
				}
			}
			same("AllreduceInto", red, c.Allreduce(OpSum, data))
			same("AllgatherInto", gat, c.Allgather(data))
			for r, blk := range c.Alltoall(send) {
				same("AlltoallInto", recv[r], blk)
			}
			return nil
		})
	}
}

// loopProgram is the communication of an application's iteration loop, n
// times over: scalar allreduces, an allgather, an alltoall and a ring halo,
// all received into memory made before the loop.
func loopProgram(n int) func(c *Comm) error {
	return func(c *Comm) error {
		me, p := c.Rank(), c.Size()
		seg, full := make([]float64, 16), make([]float64, 16*p)
		halo := make([]float64, 64)
		send, recv := make([][]float64, p), make([][]float64, p)
		for r := range send {
			send[r], recv[r] = make([]float64, 8), make([]float64, 8)
		}
		for i := 0; i < n; i++ {
			seg[0] = c.AllreduceValue(OpSum, float64(me))
			c.AllreduceInto(OpMax, seg[:2])
			c.AllgatherInto(full, seg)
			c.AlltoallInto(recv, send)
			c.Send((me+1)%p, 5, halo)
			c.RecvInto((me+p-1)%p, 5, halo)
		}
		return nil
	}
}

// TestSteadyStateLoopAllocFree pins the point of the free lists: once an
// engine's first run has stocked them, a run's iterations allocate nothing
// — 200 iterations cost what 1 does — where every message used to be a
// make.  The slack covers a buffer allocated when the scheduler puts more
// messages in flight at once than any earlier run did.
func TestSteadyStateLoopAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const p = 8
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := e.RunCtx(context.Background(), loopProgram(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(200) // stock the lists
	one, many := allocs(1), allocs(200)
	if many > one+16 {
		t.Fatalf("200 iterations allocate %.0f objects, 1 iteration %.0f: the loop allocates per message", many, one)
	}
}

// TestEngineFreeListsFollowTheRun: a clean run's free lists serve the next
// run; an aborted run's are dropped with everything else it left behind.
func TestEngineFreeListsFollowTheRun(t *testing.T) {
	const p = 4
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	stocked := func() int {
		n := 0
		for r := range e.inboxes {
			n += len(e.inboxes[r].free)
		}
		return n
	}
	if _, err := e.RunCtx(context.Background(), loopProgram(3)); err != nil {
		t.Fatal(err)
	}
	if stocked() == 0 {
		t.Fatal("a clean run left no free buffers for the next one")
	}
	_, err = e.RunCtx(context.Background(), func(c *Comm) error {
		if err := loopProgram(2)(c); err != nil {
			return err
		}
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier()
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if n := stocked(); n != 0 {
		t.Fatalf("an aborted run left %d free buffers", n)
	}
}
