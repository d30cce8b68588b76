package simmpi

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"resmod/internal/race"
)

// ringProgram is a communication-heavy test program: a ring shift, a
// tag-mismatch exchange (a message a Recv must scan past), and an
// allreduce, returning rank 0's final value through res.
func ringProgram(res []float64) func(c *Comm) error {
	return func(c *Comm) error {
		me, p := c.Rank(), c.Size()
		next, prev := (me+1)%p, (me+p-1)%p
		v := []float64{float64(me + 1)}
		c.Send(next, 1, v)
		got := c.Recv(prev, 1)
		// Out-of-order tags: send 3 then 2, receive 2 then 3, so one
		// message must wait in the inbox while a later one is taken.
		c.Send(next, 3, []float64{got[0] * 2})
		c.Send(next, 2, []float64{got[0] + 10})
		a := c.Recv(prev, 2)
		b := c.Recv(prev, 3)
		s := c.AllreduceValue(OpSum, a[0]+b[0])
		res[me] = s
		return nil
	}
}

// TestEngineReuseMatchesFresh runs the same program many times on one
// engine and asserts every run is bit-identical to a fresh world's.
func TestEngineReuseMatchesFresh(t *testing.T) {
	const p = 4
	want := make([]float64, p)
	if _, err := Run(Config{Procs: p}, ringProgram(want)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got := make([]float64, p)
		st, err := e.RunCtx(context.Background(), ringProgram(got))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for r := range got {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("run %d rank %d: %g != fresh %g", i, r, got[r], want[r])
			}
		}
		if st.Messages == 0 {
			t.Fatalf("run %d: no messages counted", i)
		}
	}
}

// TestEngineReuseAfterAbort aborts a run mid-communication (stale
// messages left in the inboxes) and asserts the next
// run on the same engine is clean: correct values, per-run stats.
func TestEngineReuseAfterAbort(t *testing.T) {
	const p = 4
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunCtx(context.Background(), func(c *Comm) error {
		// Every rank sends messages nobody receives (tag 9), which the
		// barrier's Recvs scan past, then rank 2 panics.
		for i := 0; i < 3; i++ {
			c.Send((c.Rank()+1)%p, 9, []float64{1, 2, 3})
		}
		if c.Rank() == 2 {
			panic("boom")
		}
		c.Barrier()
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}

	want := make([]float64, p)
	if _, err := Run(Config{Procs: p}, ringProgram(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, p)
	st, err := e.RunCtx(context.Background(), ringProgram(got))
	if err != nil {
		t.Fatalf("reuse after abort: %v", err)
	}
	for r := range got {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("rank %d after abort: %g != fresh %g", r, got[r], want[r])
		}
	}
	fresh := make([]float64, p)
	stFresh, _ := Run(Config{Procs: p}, ringProgram(fresh))
	if st != stFresh {
		t.Fatalf("reused stats %+v != fresh stats %+v (stale traffic leaked)", st, stFresh)
	}
}

// TestEngineReuseAfterStop: a run that a rank stops, with the others parked
// at a barrier and on a message never sent and a payload left undelivered,
// reports Stopped and no error and keeps its free lists; the engine's next
// runs serve their Sends from those lists — one ends holding exactly the
// buffers the stopped run left — and are bit-identical to a fresh world's,
// stats included.
func TestEngineReuseAfterStop(t *testing.T) {
	const p = 4
	e, err := NewEngine(Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	free := func() map[*float64]bool {
		bufs := map[*float64]bool{}
		for r := range e.inboxes {
			for _, b := range e.inboxes[r].free {
				bufs[&b[:1][0]] = true
			}
		}
		return bufs
	}
	st, err := e.RunCtx(context.Background(), func(c *Comm) error {
		if err := loopProgram(3)(c); err != nil {
			return err
		}
		c.Barrier()                                     // every rank has received all it will
		c.Send((c.Rank()+1)%p, 9, make([]float64, 100)) // never received
		switch c.Rank() {
		case 0:
			c.Recv(2, 99) // never sent
		case 3:
			c.Stop()
		default:
			c.Barrier()
		}
		panic("a rank ran on past the stop")
	})
	if err != nil || !st.Stopped {
		t.Fatalf("stopped run: stats %+v, err %v; want Stopped and no error", st, err)
	}
	kept := free()
	if len(kept) == 0 {
		t.Fatal("a stopped run dropped its free lists")
	}
	if _, err := e.RunCtx(context.Background(), loopProgram(3)); err != nil {
		t.Fatal(err)
	}
	if now := free(); len(now) != len(kept) {
		t.Fatalf("the stopped run left %d free buffers, the next run %d", len(kept), len(now))
	} else {
		for b := range now {
			if !kept[b] {
				t.Fatal("the run after the stop allocated a buffer the free lists held")
			}
		}
	}
	want := make([]float64, p)
	stFresh, err := Run(Config{Procs: p}, ringProgram(want))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, p)
	if st, err = e.RunCtx(context.Background(), ringProgram(got)); err != nil || st != stFresh {
		t.Fatalf("reuse after stop: stats %+v, err %v; a fresh world's stats %+v", st, err, stFresh)
	}
	for r := range got {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("rank %d after stop: %g != fresh %g", r, got[r], want[r])
		}
	}
}

// TestEngineReuseAfterTimeout hangs a run until the watchdog fires,
// then reuses the engine for a clean run.
func TestEngineReuseAfterTimeout(t *testing.T) {
	const p = 2
	e, err := NewEngine(Config{Procs: p, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunCtx(context.Background(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 99) // never sent: hang
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	got := make([]float64, p)
	if _, err := e.RunCtx(context.Background(), ringProgram(got)); err != nil {
		t.Fatalf("reuse after timeout: %v", err)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(Config{Procs: 0}); err == nil {
		t.Fatal("Procs=0 accepted")
	}
}

// TestEnginePoolingBoundsAllocations pins what a world costs to build: a
// pooled run allocates only per-run bookkeeping (world header, done
// channel, goroutine stacks, Comm handles), never more than a fresh
// world, and a fresh world allocates a handful of objects per rank — an
// allocation per pair of ranks (4096 at p = 64) fails the last check.
func TestEnginePoolingBoundsAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	prog := func(c *Comm) error {
		c.Barrier()
		return nil
	}
	freshAllocs := func(p int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(Config{Procs: p}, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh := freshAllocs(8)
	e, err := NewEngine(Config{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(20, func() {
		if _, err := e.RunCtx(context.Background(), prog); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > fresh {
		t.Fatalf("pooled run allocates %v/run, fresh %v/run — pooling reuses nothing", pooled, fresh)
	}
	if pooled > 64 {
		t.Fatalf("pooled run allocates %v/run, want <= 64", pooled)
	}
	if fresh64 := freshAllocs(64); fresh64 > 16*64 {
		t.Fatalf("fresh p=64 world allocates %v/run, want <= 16 per rank", fresh64)
	}
}

// TestDroppedEnginesEndTheirRanks: the rank coroutines of an engine
// nobody holds end when it is collected, and a package-level Run leaves
// none behind.
func TestDroppedEnginesEndTheirRanks(t *testing.T) {
	barrier := func(c *Comm) error {
		c.Barrier()
		return nil
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e, err := NewEngine(Config{Procs: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunCtx(context.Background(), barrier); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Config{Procs: 64}, barrier); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			runtime.GC() // a few engines' stacks at a time, not 100
		}
	}
	n := 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
	}
	t.Fatalf("%d goroutines after dropping 100 engines, %d before", n, base)
}
