package simmpi_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"resmod/internal/apps"
	_ "resmod/internal/apps/cg"
	_ "resmod/internal/apps/ft"
	_ "resmod/internal/apps/lu"
	_ "resmod/internal/apps/mg"
	_ "resmod/internal/apps/minife"
	_ "resmod/internal/apps/pennant"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// sameExecution fails the test unless got is want in everything a campaign
// reads off an execution: every rank's state and check bits, its op counts
// and fired-injection records, and the world's message counts.
func sameExecution(t *testing.T, what string, want, got apps.ExecResult) {
	t.Helper()
	if (want.Err == nil) != (got.Err == nil) {
		t.Fatalf("%s: err = %v, fresh run's %v", what, got.Err, want.Err)
	}
	if got.Comm != want.Comm {
		t.Errorf("%s: comm stats %+v, fresh run's %+v", what, got.Comm, want.Comm)
	}
	for r := range want.Outputs {
		if !apps.SameBits(got.Outputs[r].State, want.Outputs[r].State) {
			t.Errorf("%s: rank %d state differs from the fresh run's", what, r)
		}
		if !apps.SameBits(got.Outputs[r].Check, want.Outputs[r].Check) {
			t.Errorf("%s: rank %d check %v, fresh run's %v", what, r, got.Outputs[r].Check, want.Outputs[r].Check)
		}
		if g, w := got.Ctxs[r].KindCounts(), want.Ctxs[r].KindCounts(); g != w {
			t.Errorf("%s: rank %d op counts %+v, fresh run's %+v", what, r, g, w)
		}
		g, w := got.Ctxs[r].Records(), want.Ctxs[r].Records()
		if len(g) != len(w) {
			t.Errorf("%s: rank %d fired %d injections, fresh run %d", what, r, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i].Injection != w[i].Injection || g[i].Op != w[i].Op || g[i].Region != w[i].Region ||
				!apps.SameBits([]float64{g[i].Before, g[i].After}, []float64{w[i].Before, w[i].After}) {
				t.Errorf("%s: rank %d record %d is %+v, fresh run's %+v", what, r, i, g[i], w[i])
			}
		}
	}
}

// TestPoisonedReuseIsInvisible guards the one bug recycled message buffers
// can have — a read of memory a previous message, run or trial left behind,
// which would be a silently different number.  With every buffer filled
// with NaN as it enters a free list, three consecutive runs on one arena —
// clean, one injected fault, clean — must equal runs that started from
// nothing, for every registered application.
func TestPoisonedReuseIsInvisible(t *testing.T) {
	for _, app := range apps.All() {
		class := app.DefaultClass()
		for _, procs := range []int{1, 4, 16} {
			clean := apps.Execute(app, class, procs, nil, apps.DefaultTimeout)
			if clean.Err != nil {
				t.Fatalf("%s p=%d: %v", app.Name(), procs, clean.Err)
			}
			victim := procs / 2
			plan := map[int][]fpe.Injection{victim: {{
				Class: fpe.Common, Index: clean.Ctxs[victim].Counts().Common / 3, Bit: 51,
			}}}
			faulty := apps.Execute(app, class, procs, plan, apps.DefaultTimeout)

			simmpi.PoisonFreed(true)
			arena := apps.NewArena()
			for i, run := range []struct {
				what  string
				plan  map[int][]fpe.Injection
				fresh apps.ExecResult
			}{{"clean", nil, clean}, {"injected", plan, faulty}, {"clean again", nil, clean}} {
				got := arena.ExecuteCtx(context.Background(), app, class, procs, run.plan, apps.DefaultTimeout)
				sameExecution(t, fmt.Sprintf("%s p=%d pooled run %d (%s)", app.Name(), procs, i, run.what), run.fresh, got)
			}
			simmpi.PoisonFreed(false)
		}
	}
}

// dyingApp is CG until, a few collectives in, rank 1 panics — or stalls,
// for the watchdog to find — while the other ranks sit in an allreduce.
type dyingApp struct {
	apps.App
	stall bool
}

func (a dyingApp) Run(fc *fpe.Ctx, comm *simmpi.Comm, class string, st *apps.Steps) (apps.RankOutput, error) {
	seg := make([]float64, 32)
	full := make([]float64, 32*comm.Size())
	for i := 0; i < 3; i++ {
		comm.AllgatherInto(full, seg)
		seg[0] = comm.AllreduceValue(simmpi.OpSum, 1)
	}
	if comm.Rank() == 1 {
		if !a.stall {
			panic("rank 1 dies")
		}
		comm.Recv(0, 99) // never sent
	}
	comm.AllreduceValue(simmpi.OpSum, 1)
	return a.App.Run(fc, comm, class, st)
}

// TestPoisonedReuseAfterAbort: a run that dies mid-collective, and one the
// watchdog stops, leave the arena fit for a clean run that equals a fresh
// one.
func TestPoisonedReuseAfterAbort(t *testing.T) {
	cg, err := apps.Lookup("CG")
	if err != nil {
		t.Fatal(err)
	}
	const procs = 4
	// One timeout for every run, or the arena would rebuild between them.
	const timeout = 2 * time.Second
	class := cg.DefaultClass()
	fresh := apps.Execute(cg, class, procs, nil, timeout)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	simmpi.PoisonFreed(true)
	defer simmpi.PoisonFreed(false)
	arena := apps.NewArena()
	run := func(app apps.App) apps.ExecResult {
		return arena.ExecuteCtx(context.Background(), app, class, procs, nil, timeout)
	}
	sameExecution(t, "warm-up", fresh, run(cg))

	var pe *simmpi.PanicError
	if res := run(dyingApp{App: cg}); !errors.As(res.Err, &pe) || pe.Rank != 1 {
		t.Fatalf("dying run: err = %v, want rank 1's PanicError", res.Err)
	}
	sameExecution(t, "clean run after a rank panic", fresh, run(cg))

	if res := run(dyingApp{App: cg, stall: true}); !errors.Is(res.Err, simmpi.ErrTimeout) {
		t.Fatalf("stalled run: err = %v, want ErrTimeout", res.Err)
	}
	sameExecution(t, "clean run after a timeout", fresh, run(cg))
}
