package simmpi_test

import (
	"fmt"
	"testing"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/simmpi"
)

// TestPerturbedScheduleIsInvisible: the order in which a world resumes its
// ready ranks is not part of any result.  Each paper app runs at p = 4 and
// 16, clean and with one injected fault, under 8 seeded random schedules,
// and every run must equal the FIFO schedule's in every rank's State and
// Check bits, op counts and fired records, and in the world's message
// counts.
func TestPerturbedScheduleIsInvisible(t *testing.T) {
	defer simmpi.PerturbSchedule(0)
	for _, app := range apps.All() {
		class := app.DefaultClass()
		for _, procs := range []int{4, 16} {
			simmpi.PerturbSchedule(0)
			clean := apps.Execute(app, class, procs, nil, apps.DefaultTimeout)
			if clean.Err != nil {
				t.Fatalf("%s p=%d: %v", app.Name(), procs, clean.Err)
			}
			// The first of a few sites whose fault the run survives, so that
			// there is a result to compare.
			victim := procs / 2
			var plan map[int][]fpe.Injection
			var faulty apps.ExecResult
			for div := uint64(3); div < 12 && (plan == nil || faulty.Err != nil); div++ {
				plan = map[int][]fpe.Injection{victim: {{
					Class: fpe.Common, Index: clean.Ctxs[victim].Counts().Common / div, Bit: 51,
				}}}
				faulty = apps.Execute(app, class, procs, plan, apps.DefaultTimeout)
			}
			if faulty.Err != nil {
				t.Fatalf("%s p=%d: no injected run completes: %v", app.Name(), procs, faulty.Err)
			}
			for seed := uint64(1); seed <= 8; seed++ {
				simmpi.PerturbSchedule(seed)
				for _, run := range []struct {
					what string
					plan map[int][]fpe.Injection
					fifo apps.ExecResult
				}{{"clean", nil, clean}, {"injected", plan, faulty}} {
					got := apps.Execute(app, class, procs, run.plan, apps.DefaultTimeout)
					sameExecution(t, fmt.Sprintf("%s p=%d %s, schedule seed %d", app.Name(), procs, run.what, seed), run.fifo, got)
				}
			}
		}
	}
}
