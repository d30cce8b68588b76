package simmpi

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"resmod/internal/race"
)

// awaitBlocked waits until n senders are parked on in's backpressure.
// Being parked is a state, not an event, so it is polled.
func awaitBlocked(in *inbox, n int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		in.mu.Lock()
		blocked := in.blocked
		in.mu.Unlock()
		if blocked == n {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// flood sends to dst without end, counting the sends that returned.
func flood(c *Comm, dst int, sent *atomic.Int64) {
	for {
		c.Send(dst, 1, []float64{float64(sent.Load())})
		sent.Add(1)
	}
}

// TestBackpressureIsPerPair: a sender's 257th unreceived message to one
// peer blocks, another sender to the same peer is not held up by it,
// and a single Recv releases it.
func TestBackpressureIsPerPair(t *testing.T) {
	var sent atomic.Int64
	blocked := make(chan struct{})   // closed by rank 0 once rank 1 is parked
	otherDone := make(chan struct{}) // closed by rank 2 after its sends
	released := make(chan struct{})  // closed by rank 1 after its last send
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error(what)
		}
	}
	_, err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			for i := 0; i <= pairCap; i++ {
				c.Send(0, 1, []float64{float64(i)})
				sent.Add(1)
			}
			close(released)
		case 2:
			<-blocked
			for i := 0; i < 3; i++ {
				c.Send(0, 2, []float64{float64(i)})
			}
			close(otherDone)
		case 0:
			ok := awaitBlocked(&c.w.inboxes[0], 1)
			close(blocked)
			if !ok {
				t.Error("sender never blocked")
				return nil
			}
			wait(otherDone, "a second sender was blocked by the first one's messages")
			if n := sent.Load(); n != pairCap {
				t.Errorf("%d sends returned before any Recv, want %d", n, pairCap)
			}
			if got := c.RecvValue(1, 1); got != 0 {
				t.Errorf("first message = %g, want 0", got)
			}
			wait(released, "one Recv did not release the blocked sender")
			for i := 1; i <= pairCap; i++ {
				if got := c.RecvValue(1, 1); got != float64(i) {
					t.Errorf("message %d = %g", i, got)
				}
			}
			for i := 0; i < 3; i++ {
				if got := c.RecvValue(2, 2); got != float64(i) {
					t.Errorf("other sender's message %d = %g", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunawaySenderTimesOut: flooding a rank that never receives stops
// at pairCap queued messages and ends in ErrTimeout, not in unbounded
// memory.
func TestRunawaySenderTimesOut(t *testing.T) {
	var sent atomic.Int64
	st, err := Run(Config{Procs: 2, Timeout: 100 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 1 {
			flood(c, 0, &sent)
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if sent.Load() != pairCap || st.Messages != pairCap {
		t.Fatalf("%d sends returned, %d messages counted, want %d", sent.Load(), st.Messages, pairCap)
	}
}

// TestBlockedSenderReleasedByFailure: a sender parked on backpressure
// is woken by another rank's panic and by context cancellation.
func TestBlockedSenderReleasedByFailure(t *testing.T) {
	run := func(ctx context.Context, onBlocked func()) error {
		var sent atomic.Int64
		_, err := RunCtx(ctx, Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
			switch c.Rank() {
			case 1:
				flood(c, 0, &sent)
			case 2:
				if !awaitBlocked(&c.w.inboxes[0], 1) {
					t.Error("sender never blocked")
				}
				onBlocked()
				c.Recv(0, 9) // never sent: parks until the world fails
			}
			return nil
		})
		return err
	}

	err := run(context.Background(), func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Rank != 2 {
		t.Fatalf("err = %v, want rank 2's PanicError", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestFIFOPerSourceAndTag: two sources interleave two tags into rank 0,
// which receives stream by stream in an order unrelated to arrival.  Every
// stream must come out in the order it was sent, whether the messages
// were all queued beforehand or are still arriving.
func TestFIFOPerSourceAndTag(t *testing.T) {
	const n = 40
	for _, queuedFirst := range []bool{true, false} {
		runOrFatal(t, 3, func(c *Comm) error {
			if c.Rank() != 0 {
				for i := 0; i < n; i++ {
					c.SendValue(0, 1, float64(i))
					c.SendValue(0, 2, float64(100+i))
				}
			}
			if queuedFirst {
				c.Barrier()
			}
			if c.Rank() != 0 {
				return nil
			}
			streams := []struct {
				src, tag int
				base     float64
			}{{1, 2, 100}, {2, 1, 0}, {2, 2, 100}, {1, 1, 0}}
			for _, s := range streams {
				for i := 0; i < n; i++ {
					if got := c.RecvValue(s.src, s.tag); got != s.base+float64(i) {
						t.Errorf("queuedFirst=%v src %d tag %d message %d = %g, want %g",
							queuedFirst, s.src, s.tag, i, got, s.base+float64(i))
					}
				}
			}
			return nil
		})
	}
}

// TestAbortedRunPinsNoPayloads: undelivered payloads of an aborted run
// must not stay referenced from the queue arrays the engine keeps.
func TestAbortedRunPinsNoPayloads(t *testing.T) {
	const p = 4
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunCtx(context.Background(), func(c *Comm) error {
		big := make([]float64, 1<<16)
		for i := 0; i < 5; i++ {
			c.Send((c.Rank()+1)%p, 9, big)
		}
		// Receive some, so vacated slots are checked as well as queued ones.
		c.Recv((c.Rank()+p-1)%p, 9)
		c.Recv((c.Rank()+p-1)%p, 9)
		c.Barrier()
		if c.Rank() == 2 {
			panic("boom")
		}
		c.Recv(2, 77) // never sent
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	check := func(when string) {
		for r := range e.inboxes {
			in := &e.inboxes[r]
			if len(in.q) != 0 {
				t.Errorf("%s: inbox %d not empty: len %d", when, r, len(in.q))
			}
			if cap(in.q) == 0 {
				t.Errorf("%s: inbox %d lost its queue array", when, r)
			}
			for i, m := range in.q[:cap(in.q)] {
				if m.data != nil {
					t.Errorf("%s: inbox %d slot %d still references a payload", when, r, i)
				}
			}
		}
	}
	check("after the aborted run")
	if _, err := e.RunCtx(context.Background(), ringProgram(make([]float64, p))); err != nil {
		t.Fatal(err)
	}
	check("after a clean run")
}

// TestWorld1024 runs a world 16 times wider than any campaign's: neither
// the transport nor the rendezvous may be sized by pairs of ranks.
func TestWorld1024(t *testing.T) {
	const p = 1024
	alltoall := !race.Enabled && !testing.Short() // p² = 1 M blocks, and 128 MB of gathered vectors
	_, err := Run(Config{Procs: p, Timeout: 2 * time.Minute}, func(c *Comm) error {
		me := c.Rank()
		c.Barrier()
		if got, want := c.AllreduceValue(OpSum, float64(me)), float64(p*(p-1)/2); got != want {
			t.Errorf("rank %d: allreduce = %g, want %g", me, got, want)
		}
		got := c.Sendrecv((me+1)%p, 5, []float64{float64(me)}, (me+p-1)%p, 5)
		if got[0] != float64((me+p-1)%p) {
			t.Errorf("rank %d: ring got %g", me, got[0])
		}
		n := 1
		if alltoall {
			n = 16
		}
		seg, full := make([]float64, n), make([]float64, n*p)
		for i := range seg {
			seg[i] = float64(me*n + i)
		}
		c.AllgatherInto(full, seg)
		for i, v := range full {
			if v != float64(i) {
				t.Errorf("rank %d: allgather value %d = %g", me, i, v)
				break
			}
		}
		if !alltoall {
			return nil
		}
		send, recv := make([][]float64, p), make([][]float64, p)
		into := make([]float64, p)
		for d := range send {
			send[d], recv[d] = []float64{float64(me*p + d)}, into[d:d+1]
		}
		c.AlltoallInto(recv, send)
		for s, blk := range c.Alltoall(send) {
			if len(blk) != 1 || blk[0] != float64(s*p+me) || into[s] != blk[0] {
				t.Errorf("rank %d: alltoall block from %d = %v, into %g", me, s, blk, into[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineMemoryLinearInProcs: a p = 4096 arena fits in a few MB; a
// structure with one element per pair of ranks would need 16 M of them.
func TestEngineMemoryLinearInProcs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := NewEngine(Config{Procs: 4096})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("NewEngine(4096) allocated %d bytes, want < 4 MB", got)
	}
	runtime.KeepAlive(e)
}
