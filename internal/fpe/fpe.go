// Package fpe implements resmod's instrumented floating-point engine — the
// stand-in for the paper's F-SEFI/QEMU instruction-level fault injector.
//
// Every floating-point addition, subtraction, multiplication and division in
// the benchmark applications flows through a per-rank Ctx.  The Ctx counts
// dynamic injectable operations (adds/subs/muls, matching the paper's choice
// of floating-point addition and multiplication instructions) separately for
// the "common computation" and "parallel-unique computation" region classes
// (paper Observations 1–2), and executes an injection Plan: at a chosen
// dynamic operation index it flips one bit of one input operand, exactly the
// paper's single-bit-flip fault model.
//
// Add, Sub and Mul remain the per-op path: each one counts itself and can
// fire an injection.  A kernel that knows how many ops it is about to run
// may instead count by the window: Reserve(n) is true when none of the
// active class's next n injectable ops is due an injection, and the kernel
// then runs its loop as plain float64 arithmetic — the same operations on
// the same operands in the same order, every product that feeds an add or
// a subtraction rounded by an explicit float64(…) so no architecture fuses
// it — and books exactly what it ran with one Tally.  When Reserve refuses
// (the window holds a trigger) the kernel runs its instrumented loop,
// unchanged.  A window never spans a Begin, an End or a communication
// call, so counts, plan indices and Records are those of per-op counting.  (A window a panic cuts short books nothing;
// only a completed run's counts are ever read — the golden's.)
//
// A Ctx is owned by a single rank goroutine and is not safe for concurrent
// use; each rank in a simulated parallel execution gets its own Ctx.
package fpe

import (
	"fmt"
	"math"
)

// RegionClass classifies computation as common (present in serial execution)
// or parallel-unique (only present in parallel execution), per the paper's
// Observation 1.
type RegionClass int

const (
	// Common computation happens in serial and in parallel execution.
	Common RegionClass = iota
	// Unique computation happens only in parallel execution (halo packing,
	// transpose staging, ...).
	Unique

	numClasses
)

// String returns "common" or "unique".
func (c RegionClass) String() string {
	switch c {
	case Common:
		return "common"
	case Unique:
		return "unique"
	default:
		return fmt.Sprintf("RegionClass(%d)", int(c))
	}
}

// OpKind identifies the kind of floating point operation an injection hit.
type OpKind int

// The instrumented operation kinds.  Add, Sub and Mul are injectable
// (the paper injects into floating point addition and multiplication;
// subtraction compiles to the same adder datapath).  Div is instrumented
// for accounting but not injectable.
const (
	OpAdd OpKind = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the operation mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "fadd"
	case OpSub:
		return "fsub"
	case OpMul:
		return "fmul"
	case OpDiv:
		return "fdiv"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Injection describes one planned fault: at the Index-th dynamic
// injectable operation of region class Class, flip bit Bit (0 = least
// significant) of input operand Operand (0 or 1).
//
// Loading a plan (NewWithPlan, ResetPlan) panics on an injection whose
// Class, Bit or Operand is out of range.
type Injection struct {
	Class   RegionClass
	Index   uint64
	Bit     uint
	Operand int
}

// Record describes an injection that actually fired, for logging and
// mapping the error back to the application level (the paper uses F-SEFI's
// ability to do the same via pyelftools).
type Record struct {
	Injection
	Op     OpKind
	Region string
	Before float64
	After  float64
}

// Counts holds dynamic injectable-operation counts per region class.
type Counts struct {
	Common uint64
	Unique uint64
}

// KindCounts holds dynamic injectable-operation counts broken down by
// region class and operation kind: what a step boundary records, so that
// a resumed run goes on with the kind mix of the run it resumes.
type KindCounts struct {
	// ByClassKind[class][kind] counts injectable ops of that kind executed
	// in that region class (kinds: OpAdd, OpSub, OpMul; OpDiv is not
	// injectable and stays zero).
	ByClassKind [numClasses][4]uint64
}

// Of returns the class's injectable op count, its kinds summed.
func (k KindCounts) Of(class RegionClass) uint64 {
	var n uint64
	for _, v := range k.ByClassKind[class] {
		n += v
	}
	return n
}

// Counts collapses the kind breakdown into per-class totals.
func (k KindCounts) Counts() Counts {
	return Counts{Common: k.Of(Common), Unique: k.Of(Unique)}
}

// Total returns the total injectable operation count.
func (c Counts) Total() uint64 { return c.Common + c.Unique }

// Of returns the count for one class.
func (c Counts) Of(cl RegionClass) uint64 {
	if cl == Unique {
		return c.Unique
	}
	return c.Common
}

// UniqueFraction returns the fraction of injectable operations in
// parallel-unique regions — resmod's analog of the paper's Table 1
// "percentage of the parallel-unique computation", and the prob2 weight of
// Eq. 1.  Returns 0 for an empty count.
func (c Counts) UniqueFraction() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Unique) / float64(t)
}

// regionFrame is one entry of the named-region stack.
type regionFrame struct {
	name  string
	class RegionClass
	// prev is the class that was active before this frame.
	prev RegionClass
	// snapshot of injectable counters at region entry, for per-region totals.
	snap Counts
}

// Ctx is the per-rank instrumented floating point context.
type Ctx struct {
	// left is how many more ops of the active class may run before one
	// must look at the plan: left == 0 means exactly that THIS op takes the
	// slow path.  It is trigger[class] minus the class's op count
	// (effectively infinite when nothing is pending).  Add, Sub and Mul
	// are one test, one decrement and one increment of plain fields so
	// that they fit the compiler's inline budget (scripts/inlinecheck.sh).
	// It is also the window contract: Reserve(n) grants n <= left, and
	// Tally subtracts what the window ran, so the op that takes the slow
	// path is the same one per-op counting would have sent there.
	left uint64
	// adds, subs and muls are the active class's injectable ops by kind;
	// their sum is its dynamic op index.  Begin and End swap them with
	// kinds[class].
	adds, subs, muls uint64

	class RegionClass
	kinds [numClasses][4]uint64 // per class and kind; stale for the active class
	divs  uint64                // non-injectable ops (accounting only)

	// trigger[class] is the dynamic index within that class's injectable
	// stream at which the next injection fires, or noTrigger when none is
	// pending.  An injection's Index IS its class's op count, so left
	// counts down to it: clean runs, clean ranks, the pre-fire window and
	// the post-fire tail all pay the same inlined fast path.
	trigger [numClasses]uint64

	// plan[class] holds the class's injections sorted by Index, and
	// next[class] the position of its first unfired one; both empty for
	// clean runs, so the hot path pays only the counter increments.
	plan [numClasses][]Injection
	next [numClasses]int

	records []Record

	stack []regionFrame
	// regionTotals is allocated lazily on the first closed named region,
	// so region-free executions never pay for the map.
	regionTotals map[string]Counts

	// window is what the last Reserve granted and no Tally has booked yet;
	// tallied is every injectable op booked by a Tally since the reset.
	window, tallied uint64
}

// windowsOff makes every Reserve refuse, so that every op takes the per-op
// path; only the tests set it (export_test.go).
var windowsOff bool

// noTrigger marks a class stream with no pending injection.
const noTrigger = math.MaxUint64

// New returns a context with no planned injections and the Common class
// active.
func New() *Ctx { return NewWithPlan(nil) }

// NewWithPlan returns a context that will execute the given injections.
// The plan slice is copied, split by class, and sorted internally.
func NewWithPlan(plan []Injection) *Ctx {
	c := &Ctx{}
	c.ResetPlan(plan)
	return c
}

// Reset returns the context to its freshly-constructed clean state (no
// plan, Common class active, all counters zero) while keeping the
// allocated capacity — plan queues, record storage, the region map — so
// steady-state reuse across many executions allocates nothing.  The
// slices previously returned by Records must not be retained across a
// Reset.
func (c *Ctx) Reset() { c.ResetPlan(nil) }

// ResetPlan is Reset followed by loading a new injection plan, the pooled
// equivalent of NewWithPlan.
func (c *Ctx) ResetPlan(plan []Injection) {
	c.class = Common
	c.adds, c.subs, c.muls = 0, 0, 0
	c.kinds = [numClasses][4]uint64{}
	c.divs = 0
	c.window, c.tallied = 0, 0
	c.records = c.records[:0]
	c.stack = c.stack[:0]
	clear(c.regionTotals)
	c.loadPlan(plan)
}

// loadPlan splits the plan into its class queues and arms each class's
// trigger at its queue's head.  The queues keep their storage across a
// ResetPlan, so reloading a same-sized plan allocates nothing.  A
// malformed injection panics here, in the harness, rather than at fire
// time inside a rank, where the panic would be tallied as the
// application's failure.
func (c *Ctx) loadPlan(plan []Injection) {
	for cl := range c.plan {
		c.plan[cl] = c.plan[cl][:0]
	}
	c.next = [numClasses]int{}
	for _, inj := range plan {
		cl := inj.Class
		if cl != Common && cl != Unique {
			panic(fmt.Sprintf("fpe: invalid region class %d in plan", int(cl)))
		}
		if inj.Bit > 63 {
			panic(fmt.Sprintf("fpe: invalid bit %d in plan", inj.Bit))
		}
		if inj.Operand != 0 && inj.Operand != 1 {
			panic(fmt.Sprintf("fpe: invalid operand %d in plan", inj.Operand))
		}
		c.plan[cl] = append(c.plan[cl], inj)
	}
	for cl, q := range c.plan {
		sortInjections(q)
		c.trigger[cl] = noTrigger
		if len(q) > 0 {
			c.trigger[cl] = q[0].Index
		}
	}
	c.rearm()
}

// rearm recomputes the countdown for the active class from its counters:
// the one place the invariant documented on Ctx.left is established.  A
// trigger is never behind its class's count — it is set from a plan loaded
// at count zero or re-armed strictly beyond the op that fired — so the
// difference cannot wrap.
func (c *Ctx) rearm() { c.left = c.trigger[c.class] - c.count() }

// count is the active class's op count, i.e. the dynamic index of its
// next op.
func (c *Ctx) count() uint64 { return c.adds + c.subs + c.muls }

// live is the active class's row of kinds, read from the live counters.
func (c *Ctx) live() [4]uint64 {
	return [4]uint64{OpAdd: c.adds, OpSub: c.subs, OpMul: c.muls}
}

// setClass makes cl the active class: the live counters are parked in
// kinds, cl's are loaded, and the countdown restarts from cl's trigger.
func (c *Ctx) setClass(cl RegionClass) {
	c.kinds[c.class] = c.live()
	c.class = cl
	k := &c.kinds[cl]
	c.adds, c.subs, c.muls = k[OpAdd], k[OpSub], k[OpMul]
	c.rearm()
}

// sortInjections sorts by Index ascending (insertion sort; plans are tiny).
func sortInjections(q []Injection) {
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && q[j].Index < q[j-1].Index; j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// Begin enters a named region of the given class.  Regions nest; End
// restores the enclosing region's class.  The returned function is the
// matching End, enabling `defer ctx.Begin("halo", fpe.Unique)()`.
func (c *Ctx) Begin(name string, class RegionClass) func() {
	c.enter(name, class)
	return c.End
}

// enter is Begin's body, kept out of line so that Begin itself inlines
// and the End it returns need not be heap-allocated at every call site
// (TestRegionDatapathAllocFree).
//
//go:noinline
func (c *Ctx) enter(name string, class RegionClass) {
	c.stack = append(c.stack, regionFrame{
		name:  name,
		class: class,
		prev:  c.class,
		snap:  c.Counts(),
	})
	c.setClass(class)
}

// End leaves the innermost region.  It panics on unbalanced calls.
func (c *Ctx) End() {
	n := len(c.stack)
	if n == 0 {
		panic("fpe: End without matching Begin")
	}
	f := c.stack[n-1]
	c.stack = c.stack[:n-1]
	c.setClass(f.prev)
	if c.regionTotals == nil {
		c.regionTotals = make(map[string]Counts, 4)
	}
	now := c.Counts()
	t := c.regionTotals[f.name]
	t.Common += now.Common - f.snap.Common
	t.Unique += now.Unique - f.snap.Unique
	c.regionTotals[f.name] = t
}

// Boundary returns the counters a step boundary records: the per-kind op
// counts and the divisions so far.  It panics when a region is open or a
// window is reserved, since neither may span a step boundary.
func (c *Ctx) Boundary() (KindCounts, uint64) {
	if len(c.stack) != 0 || c.window != 0 {
		panic("fpe: a step boundary inside a region or a reserved window")
	}
	return c.KindCounts(), c.divs
}

// ResumeAt sets the counters to what Boundary returned at a boundary of a
// run whose plan had not fired yet: the Ctx goes on, under the plan it has
// loaded, as if it had run that run's ops itself.  Region totals restart
// from zero, so RegionCounts then covers only the ops after the boundary.
// It panics outside a boundary, or when a planned injection's index lies
// before kc's count of its class.
func (c *Ctx) ResumeAt(kc KindCounts, divs uint64) {
	c.Boundary()
	for cl := range c.trigger {
		if c.trigger[cl] < kc.Of(RegionClass(cl)) {
			panic("fpe: resuming past a planned injection")
		}
	}
	c.kinds = kc.ByClassKind
	k := &c.kinds[c.class]
	c.adds, c.subs, c.muls = k[OpAdd], k[OpSub], k[OpMul]
	c.divs = divs
	clear(c.regionTotals)
	c.rearm()
}

// Class returns the currently active region class.
func (c *Ctx) Class() RegionClass { return c.class }

// Counts returns the injectable operation counts accumulated so far.
func (c *Ctx) Counts() Counts { return c.KindCounts().Counts() }

// KindCounts returns the per-kind operation breakdown accumulated so far.
func (c *Ctx) KindCounts() KindCounts {
	kc := KindCounts{ByClassKind: c.kinds}
	kc.ByClassKind[c.class] = c.live()
	return kc
}

// Divs returns the count of instrumented non-injectable operations.
func (c *Ctx) Divs() uint64 { return c.divs }

// emptyRegions is the shared result for region-free executions, so
// RegionCounts never allocates for them.  Callers treat RegionCounts
// results as read-only.
var emptyRegions = map[string]Counts{}

// RegionCounts returns per-named-region injectable operation counts.
// Only fully closed region instances are included.  The result must be
// treated as read-only: region-free executions share one empty map.
func (c *Ctx) RegionCounts() map[string]Counts {
	if len(c.regionTotals) == 0 {
		return emptyRegions
	}
	out := make(map[string]Counts, len(c.regionTotals))
	for k, v := range c.regionTotals {
		out[k] = v
	}
	return out
}

// Records returns the injections that fired during execution.
func (c *Ctx) Records() []Record { return c.records }

// Fired reports how many planned injections have fired so far.
func (c *Ctx) Fired() int { return len(c.records) }

// Pending reports how many planned injections have not fired yet.
func (c *Ctx) Pending() int {
	n := 0
	for cl, q := range c.plan {
		n += len(q) - c.next[cl]
	}
	return n
}

// inject fires the injections due at the current op and corrupts the
// operands.  It runs on the slow path only, reached when the countdown ran
// out: the active class's trigger equals idx, the op's dynamic index in
// its class, so an injection is due on THIS op.
func (c *Ctx) inject(op OpKind, idx uint64, a, b float64) (float64, float64) {
	cl := c.class
	q, i := c.plan[cl], c.next[cl]
	// Multiple injections may share an index (distinct faults); fire them
	// all.
	for ; i < len(q) && q[i].Index == idx; i++ {
		inj := q[i]
		var before, after float64
		if inj.Operand == 0 {
			before = a
			a = FlipBit(a, inj.Bit)
			after = a
		} else {
			before = b
			b = FlipBit(b, inj.Bit)
			after = b
		}
		name := ""
		if len(c.stack) > 0 {
			name = c.stack[len(c.stack)-1].name
		}
		c.records = append(c.records, Record{
			Injection: inj, Op: op, Region: name, Before: before, After: after,
		})
	}
	// Re-arm this class's trigger at the next pending head (strictly beyond
	// idx: everything due at idx just fired).
	c.next[cl] = i
	c.trigger[cl] = noTrigger
	if i < len(q) {
		c.trigger[cl] = q[i].Index
	}
	return a, b
}

// slowAdd, slowSub and slowMul are the out-of-line halves of the ops,
// taken when the countdown is at zero: fire what is due on this op, count
// it, re-arm the countdown.  Each takes and returns what its op does, which
// keeps the inlined fast paths at one call with one result.

//go:noinline
func (c *Ctx) slowAdd(a, b float64) float64 {
	a, b = c.inject(OpAdd, c.count(), a, b)
	c.adds++
	c.rearm()
	return a + b
}

//go:noinline
func (c *Ctx) slowSub(a, b float64) float64 {
	a, b = c.inject(OpSub, c.count(), a, b)
	c.subs++
	c.rearm()
	return a - b
}

//go:noinline
func (c *Ctx) slowMul(a, b float64) float64 {
	a, b = c.inject(OpMul, c.count(), a, b)
	c.muls++
	c.rearm()
	return a * b
}

// Add computes a+b through the instrumented datapath.
func (c *Ctx) Add(a, b float64) float64 {
	if c.left == 0 {
		return c.slowAdd(a, b)
	}
	c.left--
	c.adds++
	return a + b
}

// Sub computes a-b through the instrumented datapath.
func (c *Ctx) Sub(a, b float64) float64 {
	if c.left == 0 {
		return c.slowSub(a, b)
	}
	c.left--
	c.subs++
	return a - b
}

// Mul computes a*b through the instrumented datapath.  The conversion
// rounds the product explicitly, so that inlining Mul into Add(s, Mul(x,
// y)) can never let a fusing architecture compute an FMA instead.
func (c *Ctx) Mul(a, b float64) float64 {
	if c.left == 0 {
		return c.slowMul(a, b)
	}
	c.left--
	c.muls++
	return float64(a * b)
}

// Div computes a/b.  Division is instrumented for accounting but is not an
// injection target (the paper injects into adds and muls only).
func (c *Ctx) Div(a, b float64) float64 {
	c.divs++
	return a / b
}

// Reserve reports whether the active class's next n injectable ops may run
// as plain arithmetic: true iff none of them is due an injection.  A true
// Reserve must be followed, before any other op of this Ctx, by the Tally
// of what ran.
func (c *Ctx) Reserve(n uint64) bool {
	if n > c.left || windowsOff {
		return false
	}
	c.window = n
	return true
}

// Tally books the ops a reserved window ran plain, exactly as per-op
// counting would have.  It panics when they exceed the reservation: a
// kernel whose bound is wrong fails in the harness, not in the numbers.
// (A constant message keeps Tally inlinable: FT books a window per line.)
func (c *Ctx) Tally(adds, subs, muls, divs uint64) {
	n := adds + subs + muls
	if n > c.window {
		panic("fpe: Tally exceeds the ops its Reserve granted")
	}
	c.window, c.left, c.tallied = 0, c.left-n, c.tallied+n
	c.adds, c.subs, c.muls, c.divs = c.adds+adds, c.subs+subs, c.muls+muls, c.divs+divs
}

// FMA computes a*b+x as one mul and one add through the datapath.
func (c *Ctx) FMA(a, b, x float64) float64 {
	return c.Add(c.Mul(a, b), x)
}

// Dot accumulates the instrumented dot product of x and y.
// It panics if the lengths differ.
func (c *Ctx) Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("fpe: Dot length mismatch")
	}
	var s float64
	if n := uint64(len(x)); c.Reserve(2 * n) {
		for i := range x {
			s += float64(x[i] * y[i])
		}
		c.Tally(n, 0, n, 0)
		return s
	}
	for i := range x {
		s = c.Add(s, c.Mul(x[i], y[i]))
	}
	return s
}

// Axpy computes y += alpha*x element-wise through the datapath.
func (c *Ctx) Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("fpe: Axpy length mismatch")
	}
	if n := uint64(len(x)); c.Reserve(2 * n) {
		for i := range x {
			y[i] += float64(alpha * x[i])
		}
		c.Tally(n, 0, n, 0)
		return
	}
	for i := range x {
		y[i] = c.Add(y[i], c.Mul(alpha, x[i]))
	}
}

// Aypx computes y = x + beta*y element-wise through the datapath: the
// conjugate-gradient direction update p = r + beta p.
func (c *Ctx) Aypx(beta float64, x, y []float64) {
	if len(x) != len(y) {
		panic("fpe: Aypx length mismatch")
	}
	if n := uint64(len(x)); c.Reserve(2 * n) {
		for i := range x {
			y[i] = x[i] + float64(beta*y[i])
		}
		c.Tally(n, 0, n, 0)
		return
	}
	for i := range x {
		y[i] = c.Add(x[i], c.Mul(beta, y[i]))
	}
}

// FlipBit returns f with bit `bit` (0..63) of its IEEE-754 representation
// inverted.
func FlipBit(f float64, bit uint) float64 {
	if bit > 63 {
		panic(fmt.Sprintf("fpe: bit %d out of range", bit))
	}
	return math.Float64frombits(math.Float64bits(f) ^ (1 << bit))
}
