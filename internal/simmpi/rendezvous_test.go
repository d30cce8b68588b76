package simmpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// collectiveCalls is every collective, as one call a rank can make on cc.
var collectiveCalls = []struct {
	name string
	call func(cc *Comm)
}{
	{"Barrier", func(cc *Comm) { cc.Barrier() }},
	{"Bcast", func(cc *Comm) { cc.Bcast(0, []float64{1, 2}) }},
	{"Reduce", func(cc *Comm) { cc.Reduce(0, OpSum, []float64{1, 2}) }},
	{"Allreduce", func(cc *Comm) { cc.AllreduceInto(OpSum, []float64{1, 2}) }},
	{"AllreduceValue", func(cc *Comm) { cc.AllreduceValue(OpMax, 1) }},
	{"Gather", func(cc *Comm) { cc.Gather(0, []float64{1, 2}) }},
	{"Allgather", func(cc *Comm) { cc.Allgather([]float64{1, 2}) }},
	{"Scatter", func(cc *Comm) { cc.Scatter(0, make([]float64, 2*cc.Size())) }},
	{"Alltoall", func(cc *Comm) { cc.Alltoall(make([][]float64, cc.Size())) }},
}

// meetProgram runs every collective and leaves what each rank got in res.
func meetProgram(res [][]float64) func(c *Comm) error {
	return func(c *Comm) error {
		me := float64(c.Rank())
		v := []float64{1 / (me + 3), me}
		out := []float64{c.AllreduceValue(OpSum, v[0])}
		out = append(out, c.Allreduce(OpMax, v)...)
		out = append(out, c.Bcast(c.Size()-1, v)...)
		out = append(out, c.Reduce(0, OpSum, v)...)
		out = append(out, c.Gather(0, v)...)
		all := c.Allgather(v)
		out = append(out, all...)
		out = append(out, c.Scatter(0, all)...)
		send := make([][]float64, c.Size())
		for r := range send {
			send[r] = []float64{me, float64(r)}
		}
		for _, blk := range c.Alltoall(send) {
			out = append(out, blk...)
		}
		c.Barrier()
		res[c.Rank()] = out
		return nil
	}
}

// TestFaultsAtTheMeetingPoint: whatever ends a world — a rank's panic or
// error, a deadlock, the watchdog ending a livelock, the caller's context
// — while the other ranks are parked in a collective releases them all
// with the error that failure always had, and leaves the engine fit for a
// run that equals a fresh world's in every bit and count.  The ranks start
// in rank order, so the victim, the last, starts when all the others have
// parked.
func TestFaultsAtTheMeetingPoint(t *testing.T) {
	const p, victim = 6, 5
	errBoom := errors.New("boom")
	want := make([][]float64, p)
	wantStats, err := Run(Config{Procs: p}, meetProgram(want))
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name    string
		timeout time.Duration
		fail    func(c *Comm, cancel context.CancelFunc) error
		check   func(err error) bool
	}{
		{"panic", 30 * time.Second, func(*Comm, context.CancelFunc) error { panic("boom") }, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Rank == victim
		}},
		{"error", 30 * time.Second, func(*Comm, context.CancelFunc) error { return errBoom }, func(err error) bool {
			var re *RankError
			return errors.As(err, &re) && re.Rank == victim && errors.Is(err, errBoom)
		}},
		{"deadlock", 30 * time.Second, func(c *Comm, _ context.CancelFunc) error {
			c.Recv(c.Rank(), 99) // never sent: a hang, with every rank blocked
			return nil
		}, func(err error) bool { return errors.Is(err, ErrTimeout) }},
		{"watchdog", 150 * time.Millisecond, func(c *Comm, _ context.CancelFunc) error {
			buf := []float64{1}
			for { // a livelock: never blocked, so only the watchdog ends it
				c.Send(c.Rank(), 98, buf)
				c.RecvInto(c.Rank(), 98, buf)
			}
		}, func(err error) bool { return errors.Is(err, ErrTimeout) }},
		{"cancel", 30 * time.Second, func(c *Comm, cancel context.CancelFunc) error {
			cancel()
			c.Recv(c.Rank(), 99) // released by the cancellation
			return nil
		}, func(err error) bool { return errors.Is(err, ErrCanceled) && errors.Is(err, context.Canceled) }},
	}
	for _, mode := range modes {
		e, err := NewEngine(Config{Procs: p, Timeout: mode.timeout})
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range collectiveCalls {
			what := fmt.Sprintf("%s during %s", mode.name, col.name)
			ctx, cancel := context.WithCancel(context.Background())
			start := time.Now()
			_, err := e.RunCtx(ctx, func(c *Comm) error {
				if c.Rank() == victim {
					if c.w.root.arrived != p-1 {
						t.Errorf("%s: %d ranks parked, want %d", what, c.w.root.arrived, p-1)
					}
					return mode.fail(c, cancel)
				}
				col.call(c)
				return nil
			})
			cancel()
			if !mode.check(err) {
				t.Errorf("%s: err = %v", what, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("%s: took %v to release the parked ranks", what, elapsed)
			}
			got := make([][]float64, p)
			st, err := e.RunCtx(context.Background(), meetProgram(got))
			if err != nil {
				t.Fatalf("%s: the next run on the engine: %v", what, err)
			}
			if st != wantStats {
				t.Errorf("%s: the next run's stats %+v, a fresh world's %+v", what, st, wantStats)
			}
			for r := range want {
				if len(got[r]) != len(want[r]) {
					t.Fatalf("%s: next run, rank %d: %d values, a fresh world's %d", what, r, len(got[r]), len(want[r]))
				}
				for i := range want[r] {
					if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
						t.Errorf("%s: next run, rank %d value %d: %g, a fresh world's %g", what, r, i, got[r][i], want[r][i])
					}
				}
			}
		}
	}
}

// TestMismatchedArrivals: ranks that enter different collectives, or one
// collective with different lengths or roots, are told so at once — by a
// panic naming both ranks and both collectives, so a Failure like the hang
// it used to be — instead of waiting out the watchdog.
func TestMismatchedArrivals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		calls [2]func(c *Comm)
		names []string
	}{
		{"Barrier against Allreduce",
			[2]func(*Comm){func(c *Comm) { c.Barrier() }, func(c *Comm) { c.AllreduceValue(OpSum, 1) }},
			[]string{"Barrier(", "Allreduce("}},
		{"Allreduce of 1 value against 2",
			[2]func(*Comm){func(c *Comm) { c.AllreduceInto(OpSum, make([]float64, 1)) }, func(c *Comm) { c.AllreduceInto(OpSum, make([]float64, 2)) }},
			[]string{"Allreduce(op sum, root 0, 1 values)", "Allreduce(op sum, root 0, 2 values)"}},
		{"Bcast from two roots",
			[2]func(*Comm){func(c *Comm) { c.Bcast(0, []float64{1}) }, func(c *Comm) { c.Bcast(1, []float64{1}) }},
			[]string{"Bcast(op sum, root 0,", "Bcast(op sum, root 1,"}},
		{"Allreduce with two operators",
			[2]func(*Comm){func(c *Comm) { c.AllreduceValue(OpSum, 1) }, func(c *Comm) { c.AllreduceValue(OpMax, 1) }},
			[]string{"Allreduce(op sum,", "Allreduce(op max,"}},
	} {
		start := time.Now()
		_, err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
			tc.calls[c.Rank()%2](c)
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want a PanicError", tc.name, err)
		}
		msg := fmt.Sprint(pe.Value)
		for _, part := range append(tc.names, "rank ", "while rank ") {
			if !strings.Contains(msg, part) {
				t.Errorf("%s: %q does not name %q", tc.name, msg, part)
			}
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%s: took %v to fail", tc.name, elapsed)
		}
	}
}

// TestAlltoallIntoWrongBlockPanics: a block that is not the size of what
// the peer sends is a program bug, reported by the rank that finds it.
func TestAlltoallIntoWrongBlockPanics(t *testing.T) {
	_, err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
		send, recv := make([][]float64, 3), make([][]float64, 3)
		for r := range send {
			send[r], recv[r] = make([]float64, 2), make([]float64, 2)
		}
		if c.Rank() == 2 {
			recv[0] = make([]float64, 3)
		}
		c.AlltoallInto(recv, send)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "2 values received into 3") {
		t.Fatalf("err = %v, want a PanicError about 2 values received into 3", err)
	}
}

// TestStatsCountCollectives pins what Stats says of collectives: a message
// for each rank's arrival, and the values that changed hands.
func TestStatsCountCollectives(t *testing.T) {
	const p, n = 5, 3
	for _, tc := range []struct {
		name   string
		call   func(c *Comm)
		floats uint64
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }, 0},
		{"Bcast", func(c *Comm) { c.Bcast(1, make([]float64, n)) }, (p - 1) * n},
		{"Reduce", func(c *Comm) { c.Reduce(1, OpSum, make([]float64, n)) }, (p - 1) * n},
		{"Allreduce", func(c *Comm) { c.Allreduce(OpSum, make([]float64, n)) }, 2 * (p - 1) * n},
		{"Gather", func(c *Comm) { c.Gather(1, make([]float64, n)) }, (p - 1) * n},
		{"Allgather", func(c *Comm) { c.Allgather(make([]float64, n)) }, (p-1)*n + (p-1)*p*n},
		{"Scatter", func(c *Comm) { c.Scatter(1, make([]float64, p*n)) }, (p - 1) * n},
		{"Alltoall", func(c *Comm) {
			send := make([][]float64, p)
			for r := range send {
				send[r] = make([]float64, n)
			}
			c.Alltoall(send)
		}, p * (p - 1) * n},
	} {
		st := runOrFatal(t, p, func(c *Comm) error {
			tc.call(c)
			return nil
		})
		if st.Messages != p || st.Floats != tc.floats {
			t.Errorf("%s: stats %+v, want %d messages and %d floats", tc.name, st, p, tc.floats)
		}
	}
	// A one-rank world meets nobody and counts nothing.
	st := runOrFatal(t, 1, func(c *Comm) error {
		c.AllreduceValue(OpSum, 1)
		return nil
	})
	if st != (Stats{}) {
		t.Errorf("one rank: stats %+v, want none", st)
	}
}
