// Package apptest provides a shared conformance suite that every resmod
// benchmark application must pass.  It verifies the properties the paper's
// model assumes (§2): identical numerical algorithm across scales,
// deterministic execution, correct region accounting, and sane behaviour
// under injection.
package apptest

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"resmod/internal/apps"
	"resmod/internal/fpe"
	"resmod/internal/race"
	"resmod/internal/simmpi"
)

// Options tunes the conformance suite for one application.
type Options struct {
	// Class is the problem class to test (empty = default class).
	Class string
	// Procs are the parallel sizes to exercise (must not include 1).
	Procs []int
	// WantUnique states whether the app has parallel-unique computation in
	// parallel mode.
	WantUnique bool
	// MaxUniqueFraction bounds the parallel-unique fraction when present.
	MaxUniqueFraction float64
}

// Conformance runs the suite.
func Conformance(t *testing.T, app apps.App, opt Options) {
	t.Helper()
	class := opt.Class
	if class == "" {
		class = app.DefaultClass()
	}

	// --- Serial execution -------------------------------------------------
	serial := apps.Execute(app, class, 1, nil, apps.DefaultTimeout)
	if serial.Err != nil {
		t.Fatalf("serial run failed: %v", serial.Err)
	}
	serialCheck := serial.Outputs[0].Check
	if len(serialCheck) == 0 {
		t.Fatal("serial run produced no check values")
	}
	if !apps.AllFinite(serialCheck) {
		t.Fatalf("serial check not finite: %v", serialCheck)
	}
	if !app.Verify(serialCheck, serialCheck) {
		t.Fatal("checker rejects the golden values themselves")
	}
	if len(serial.Outputs[0].State) == 0 {
		t.Fatal("serial run produced no state")
	}
	if c := serial.Ctxs[0].Counts(); c.Unique != 0 {
		t.Fatalf("serial execution has %d parallel-unique ops; want 0", c.Unique)
	} else if c.Common == 0 {
		t.Fatal("serial execution performed no instrumented ops")
	}

	// Serial determinism.
	serial2 := apps.Execute(app, class, 1, nil, apps.DefaultTimeout)
	if serial2.Err != nil {
		t.Fatalf("second serial run failed: %v", serial2.Err)
	}
	if !bitEqual(serial.Outputs[0].State, serial2.Outputs[0].State) {
		t.Fatal("serial execution is not deterministic")
	}
	if serial.Ctxs[0].Counts() != serial2.Ctxs[0].Counts() {
		t.Fatal("serial op counts are not deterministic")
	}

	// --- Parallel executions ----------------------------------------------
	for _, p := range opt.Procs {
		par := apps.Execute(app, class, p, nil, apps.DefaultTimeout)
		if par.Err != nil {
			t.Fatalf("p=%d run failed: %v", p, par.Err)
		}
		check := par.Outputs[0].Check
		// Cross-scale algorithm agreement: the parallel result must pass
		// the checker against the serial golden values (Observation 1: the
		// executions use the same numerical algorithm).
		if !app.Verify(serialCheck, check) {
			t.Fatalf("p=%d check %v fails checker against serial golden %v", p, check, serialCheck)
		}

		// Parallel determinism: bit-identical states and counts across runs.
		par2 := apps.Execute(app, class, p, nil, apps.DefaultTimeout)
		if par2.Err != nil {
			t.Fatalf("p=%d second run failed: %v", p, par2.Err)
		}
		for r := 0; r < p; r++ {
			if !bitEqual(par.Outputs[r].State, par2.Outputs[r].State) {
				t.Fatalf("p=%d rank %d state not deterministic", p, r)
			}
			if par.Ctxs[r].Counts() != par2.Ctxs[r].Counts() {
				t.Fatalf("p=%d rank %d op counts not deterministic", p, r)
			}
		}

		// Region accounting.
		var total fpe.Counts
		for r := 0; r < p; r++ {
			c := par.Ctxs[r].Counts()
			total.Common += c.Common
			total.Unique += c.Unique
			if c.Common == 0 {
				t.Fatalf("p=%d rank %d performed no common ops", p, r)
			}
		}
		if opt.WantUnique {
			if total.Unique == 0 {
				t.Fatalf("p=%d: expected parallel-unique computation, found none", p)
			}
			if f := total.UniqueFraction(); f > opt.MaxUniqueFraction {
				t.Fatalf("p=%d: unique fraction %.3f exceeds bound %.3f",
					p, f, opt.MaxUniqueFraction)
			}
		} else if total.Unique != 0 {
			t.Fatalf("p=%d: app declared no parallel-unique computation but has %d unique ops",
				p, total.Unique)
		}

		// Assumption 2: ranks do comparable work (within 2x of each other).
		minOps, maxOps := total.Total(), uint64(0)
		for r := 0; r < p; r++ {
			ops := par.Ctxs[r].Counts().Total()
			if ops < minOps {
				minOps = ops
			}
			if ops > maxOps {
				maxOps = ops
			}
		}
		if maxOps > 2*minOps {
			t.Fatalf("p=%d: rank work imbalance: min=%d max=%d ops", p, minOps, maxOps)
		}
	}

	// --- Injection smoke test ----------------------------------------------
	// A sign flip in the middle of rank 0's common stream must either
	// complete (possibly with corrupt output) or fail through the harness's
	// error paths — never wedge the suite.
	mid := serial.Ctxs[0].Counts().Common / 2
	inj := apps.Execute(app, class, 1, map[int][]fpe.Injection{
		0: {{Class: fpe.Common, Index: mid, Bit: 63, Operand: 0}},
	}, apps.DefaultTimeout)
	if inj.Err == nil && inj.Ctxs[0].Fired() != 1 {
		t.Fatalf("planned injection did not fire (fired=%d)", inj.Ctxs[0].Fired())
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Alloc is what one execution allocates on the heap.
type Alloc struct {
	Bytes, Objects uint64
}

// MeasureAlloc returns what one fault-free run of app's default class at
// procs ranks allocates on a warmed arena — the steady state of a campaign
// worker — from the process-wide allocation counters (so nothing else may
// run beside it).  It is the mean over a batch of runs, and the least of a
// few batches: what the runtime allocates now and then on its own account
// (a goroutine descriptor, a buffer for a message that overtook another)
// only ever adds, and next to a small app's few kilobytes it is not small.
func MeasureAlloc(t *testing.T, app apps.App, procs int) Alloc {
	t.Helper()
	arena := apps.NewArena()
	run := func() {
		res := arena.ExecuteCtx(context.Background(), app, app.DefaultClass(), procs, nil, apps.DefaultTimeout)
		if res.Err != nil {
			t.Fatalf("p=%d run failed: %v", procs, res.Err)
		}
	}
	// Two runs build the arena, fill the apps' setup caches and stock the
	// engine's free lists.
	run()
	run()
	const batches, runs = 3, 4
	least := Alloc{Bytes: math.MaxUint64, Objects: math.MaxUint64}
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		least.Bytes = min(least.Bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		least.Objects = min(least.Objects, (after.Mallocs-before.Mallocs)/runs)
	}
	return least
}

// AllocBounded pins what a pooled clean run allocates at each rank count in
// pins, so a change that puts a per-message or per-iteration allocation
// back into the app or the runtime under it fails a test instead of only
// moving a benchmark number.  A pin is 1.25 x what the app measured when
// it was set (the scheduler decides how many messages are in flight at
// once, which moves the count by a few percent); tighten it when the app
// gets leaner.
func AllocBounded(t *testing.T, app apps.App, pins map[int]Alloc) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	scales := make([]int, 0, len(pins))
	for procs := range pins {
		scales = append(scales, procs)
	}
	sort.Ints(scales)
	for _, procs := range scales {
		pin := pins[procs]
		got := MeasureAlloc(t, app, procs)
		t.Logf("%s p=%d: %d bytes, %d objects per pooled run (pins %d, %d)",
			app.Name(), procs, got.Bytes, got.Objects, pin.Bytes, pin.Objects)
		if got.Bytes > pin.Bytes || got.Objects > pin.Objects {
			t.Errorf("%s p=%d: a pooled run allocates %d bytes in %d objects; want <= %d in %d",
				app.Name(), procs, got.Bytes, got.Objects, pin.Bytes, pin.Objects)
		}
	}
}

// SetupReadOnly asserts that no run can write to the fault-free setup
// tables app caches across runs (see package apps): digest, the app's hash
// over everything it has cached, must read the same after a trial whose
// fault corrupts the output (SDC) and after one the watchdog kills
// (Failure) as it did before them.
func SetupReadOnly(t *testing.T, app apps.App, procs int, digest func() uint64) {
	t.Helper()
	class := app.DefaultClass()
	clean := apps.Execute(app, class, procs, nil, apps.DefaultTimeout)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}
	before := digest()

	// A flip of the top exponent bit, at the first of a few sites where it
	// is not masked.
	victim, sdc := procs/2, false
	for div := uint64(2); div < 8 && !sdc; div++ {
		res := apps.Execute(app, class, procs, map[int][]fpe.Injection{victim: {{
			Class: fpe.Common, Index: clean.Ctxs[victim].Counts().Common / div, Bit: 62,
		}}}, apps.DefaultTimeout)
		sdc = res.Err == nil && !app.Verify(clean.Outputs[0].Check, res.Outputs[0].Check)
	}
	if !sdc {
		t.Fatal("no exponent flip made an SDC trial")
	}
	if got := digest(); got != before {
		t.Errorf("an SDC trial changed the cached setup: digest %x, was %x", got, before)
	}

	// A run can beat even a 1 ns watchdog, so the Failure trial is retried
	// (the setup checked after every attempt) until the watchdog wins.
	for attempt := 1; ; attempt++ {
		hung := apps.Execute(app, class, procs, nil, time.Nanosecond)
		if got := digest(); got != before {
			t.Fatalf("a 1 ns watchdog's run changed the cached setup: digest %x, was %x", got, before)
		}
		if errors.Is(hung.Err, simmpi.ErrTimeout) {
			return
		}
		if hung.Err != nil || attempt == 50 {
			t.Fatalf("a 1 ns watchdog did not make a Failure trial in %d attempts: err %v", attempt, hung.Err)
		}
	}
}

// OpCountNearSerial fails when app's golden run at MaxProcs of class (empty
// = default class) does, over all its ranks, more than 3 % more common ops
// than the serial run.  The paper's model reads the serial campaign's
// result for the common computation of a parallel run (Eq. 4), which holds
// only while the ranks split the serial work between them instead of
// repeating it.
func OpCountNearSerial(t *testing.T, app apps.App, class string) {
	t.Helper()
	if class == "" {
		class = app.DefaultClass()
	}
	common := func(procs int) (n uint64) {
		res := apps.Execute(app, class, procs, nil, apps.DefaultTimeout)
		if res.Err != nil {
			t.Fatalf("p=%d run failed: %v", procs, res.Err)
		}
		for _, fc := range res.Ctxs {
			n += fc.Counts().Common
		}
		return n
	}
	procs := app.MaxProcs(class)
	ser, par := common(1), common(procs)
	t.Logf("%s/%s: %d common ops at p=%d, %d serial (x%.4f)", app.Name(), class, par, procs, ser, float64(par)/float64(ser))
	if float64(par) > 1.03*float64(ser) {
		t.Errorf("%s/%s: p=%d does %d common ops, more than 1.03 x the serial %d", app.Name(), class, procs, par, ser)
	}
}

// Digest hashes setup tables ([]float64 by their bits, []int) for
// SetupReadOnly, in the order given.
func Digest(tables ...any) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, table := range tables {
		switch xs := table.(type) {
		case []float64:
			for _, x := range xs {
				put(math.Float64bits(x))
			}
		case []int:
			for _, x := range xs {
				put(uint64(x))
			}
		default:
			panic("apptest: Digest of an unsupported table type")
		}
	}
	return h.Sum64()
}
