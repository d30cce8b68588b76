package fpe

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"resmod/internal/stats"
)

// refCtx is a reference oracle for the instrumented datapath: the
// original (pre-disarm) semantics, scanning every planned stream on
// every operation with no exhausted-group skipping and no fast path,
// and counting every op into every open region as it happens.  The one
// datapath must be observationally identical to it.
type refCtx struct {
	class    RegionClass
	counters [numClasses]uint64
	kinds    [numClasses][4]uint64
	groups   []injGroup
	records  []Record
	stack    []refFrame
	regions  map[string]Counts
}

// refFrame is an open region of the oracle.
type refFrame struct {
	name  string
	prev  RegionClass
	count [numClasses]uint64 // ops run while open, nested regions included
}

func newRefCtx(plan []Injection) *refCtx {
	r := &refCtx{regions: map[string]Counts{}}
	for _, inj := range plan {
		gi := -1
		for i := range r.groups {
			if r.groups[i].class == inj.Class && r.groups[i].kindMask == inj.KindMask {
				gi = i
				break
			}
		}
		if gi < 0 {
			r.groups = append(r.groups, injGroup{class: inj.Class, kindMask: inj.KindMask})
			gi = len(r.groups) - 1
		}
		r.groups[gi].queue = append(r.groups[gi].queue, inj)
	}
	for i := range r.groups {
		sortInjections(r.groups[i].queue)
	}
	return r
}

func (r *refCtx) begin(name string, class RegionClass) {
	r.stack = append(r.stack, refFrame{name: name, prev: r.class})
	r.class = class
}

func (r *refCtx) end() {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.class = f.prev
	t := r.regions[f.name]
	t.Common += f.count[Common]
	t.Unique += f.count[Unique]
	r.regions[f.name] = t
}

func (r *refCtx) op(op OpKind, a, b float64) (float64, float64) {
	cl := r.class
	r.counters[cl]++
	r.kinds[cl][op]++
	region := ""
	for i := range r.stack {
		r.stack[i].count[cl]++
		region = r.stack[i].name
	}
	for gi := range r.groups {
		g := &r.groups[gi]
		if g.class != cl || (g.kindMask != 0 && g.kindMask&(1<<uint(op)) == 0) {
			continue
		}
		idx := g.ctr
		g.ctr = idx + 1
		for g.pos < len(g.queue) && g.queue[g.pos].Index == idx {
			inj := g.queue[g.pos]
			g.pos++
			var before, after float64
			if inj.Operand == 0 {
				before, a = a, inj.corrupt(a)
				after = a
			} else {
				before, b = b, inj.corrupt(b)
				after = b
			}
			r.records = append(r.records, Record{
				Injection: inj, Op: op, Region: region, Before: before, After: after,
			})
		}
	}
	return a, b
}

func (r *refCtx) add(a, b float64) float64 { a, b = r.op(OpAdd, a, b); return a + b }
func (r *refCtx) sub(a, b float64) float64 { a, b = r.op(OpSub, a, b); return a - b }
func (r *refCtx) mul(a, b float64) float64 { a, b = r.op(OpMul, a, b); return a * b }

// dot and axpy spell out what Ctx.Dot and Ctx.Axpy promise: one mul then
// one add per element, in index order.
func (r *refCtx) dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s = r.add(s, r.mul(x[i], y[i]))
	}
	return s
}

func (r *refCtx) axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] = r.add(y[i], r.mul(alpha, x[i]))
	}
}

// recordsEqual compares record lists bit-exactly (reflect.DeepEqual
// would treat an injected NaN as unequal to itself).
func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Injection != y.Injection || x.Op != y.Op || x.Region != y.Region ||
			math.Float64bits(x.Before) != math.Float64bits(y.Before) ||
			math.Float64bits(x.After) != math.Float64bits(y.After) {
			return false
		}
	}
	return true
}

// lockstep drives the real context and the oracle through the same
// calls, carrying one running value per side (it appears once per op, so
// an injected NaN never meets a second NaN whose payload could win).
type lockstep struct {
	t      *testing.T
	c      *Ctx
	r      *refCtx
	sc, sr float64
}

func newLockstep(t *testing.T, c *Ctx, plan []Injection) *lockstep {
	return &lockstep{t: t, c: c, r: newRefCtx(plan), sc: 1, sr: 1}
}

func (l *lockstep) begin(name string, class RegionClass) {
	l.c.Begin(name, class)
	l.r.begin(name, class)
}

func (l *lockstep) end() {
	l.c.End()
	l.r.end()
}

// step runs one call of the given shape (0..5: Add, Sub, Mul, FMA, Dot,
// Axpy) with operand x on both sides.
func (l *lockstep) step(shape int, x float64) {
	l.t.Helper()
	m := 1 + x/16
	switch shape {
	case 0:
		l.sc, l.sr = l.c.Add(l.sc, x), l.r.add(l.sr, x)
	case 1:
		l.sc, l.sr = l.c.Sub(l.sc, x), l.r.sub(l.sr, x)
	case 2:
		l.sc, l.sr = l.c.Mul(l.sc, m), l.r.mul(l.sr, m)
	case 3:
		l.sc, l.sr = l.c.FMA(l.sc, m, x), l.r.add(l.r.mul(l.sr, m), x)
	case 4:
		l.sc = l.c.Dot([]float64{l.sc, x, 1}, []float64{m, 0.5, x})
		l.sr = l.r.dot([]float64{l.sr, x, 1}, []float64{m, 0.5, x})
	default:
		yc, yr := []float64{x, l.sc, 2}, []float64{x, l.sr, 2}
		l.c.Axpy(m, []float64{1, x, 0.25}, yc)
		l.r.axpy(m, []float64{1, x, 0.25}, yr)
		for i := range yc {
			if math.Float64bits(yc[i]) != math.Float64bits(yr[i]) {
				l.t.Fatalf("Axpy y[%d] = %g, oracle %g", i, yc[i], yr[i])
			}
		}
		l.sc, l.sr = yc[1], yr[1]
	}
}

// sameCounts compares what can be read at any moment, open regions or not.
func (l *lockstep) sameCounts() {
	l.t.Helper()
	c, r := l.c, l.r
	if math.Float64bits(l.sc) != math.Float64bits(l.sr) {
		l.t.Fatalf("running values diverged: %g vs oracle %g", l.sc, l.sr)
	}
	if c.Class() != r.class {
		l.t.Fatalf("Class = %v, oracle %v", c.Class(), r.class)
	}
	if c.Counts() != (Counts{Common: r.counters[Common], Unique: r.counters[Unique]}) {
		l.t.Fatalf("Counts = %+v, oracle %+v", c.Counts(), r.counters)
	}
	if c.KindCounts() != (KindCounts{ByClassKind: r.kinds}) {
		l.t.Fatalf("KindCounts = %+v, oracle %+v", c.KindCounts(), r.kinds)
	}
}

// sameObservations closes the comparison once every region is closed.
func (l *lockstep) sameObservations(planned int) {
	l.t.Helper()
	l.sameCounts()
	c, r := l.c, l.r
	if !recordsEqual(c.Records(), r.records) {
		l.t.Fatalf("Records = %+v, oracle %+v", c.Records(), r.records)
	}
	if got := c.RegionCounts(); !reflect.DeepEqual(got, r.regions) {
		l.t.Fatalf("RegionCounts = %+v, oracle %+v", got, r.regions)
	}
	if c.Fired() != len(r.records) || c.Fired()+c.Pending() != planned {
		l.t.Fatalf("fired %d + pending %d, oracle fired %d of %d planned",
			c.Fired(), c.Pending(), len(r.records), planned)
	}
}

// drive replays n pseudo-random calls, leaving and re-entering regions of
// either class at random (nested at most once) so both class streams
// advance through every kind of class switch, and compares the counts
// mid-region as it goes.
func (l *lockstep) drive(rng *stats.RNG, n int) {
	l.t.Helper()
	names := [2][numClasses]string{{"outer-c", "outer-u"}, {"inner-c", "inner-u"}}
	depth := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0, 1:
			if depth < 2 {
				class := RegionClass(rng.Intn(2))
				l.begin(names[depth][class], class)
				depth++
			}
		case 2, 3:
			if depth > 0 {
				l.end()
				depth--
			}
		case 4:
			l.sameCounts()
		}
		l.step(rng.Intn(6), float64(rng.Intn(9)+1))
	}
	for ; depth > 0; depth-- {
		l.end()
	}
}

// TestDisarmMatchesFullScanSemantics is the datapath's oracle test:
// across randomized plans (multiple streams, kind masks, shared indices)
// and call sequences that cross between the classes in both directions
// and run far past the last planned index, the values computed, Counts,
// KindCounts, RegionCounts and Records are bit-identical to the
// always-scan reference semantics.
func TestDisarmMatchesFullScanSemantics(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(4)
		plan := make([]Injection, 0, k+1)
		for i := 0; i <= k; i++ {
			inj := Injection{
				Class:   RegionClass(rng.Intn(2)),
				Index:   uint64(rng.Intn(40)), // indices may collide: multi-fire
				Bit:     uint(rng.Intn(64)),
				Operand: rng.Intn(2),
			}
			if rng.Intn(2) == 0 {
				inj.KindMask = uint8(rng.Intn(7) + 1)
			}
			plan = append(plan, inj)
		}
		l := newLockstep(t, NewWithPlan(plan), plan)
		// 400 calls are ~1000 ops split over the two class streams, against
		// a largest planned index of 39: every stream runs well past its
		// last planned injection, exercising the disarmed tail.
		l.drive(stats.NewRNG(uint64(1000+trial)), 400)
		l.sameObservations(len(plan))
	}
}

// TestDatapathDirectedCases plants injections on the ops where the
// datapath's bookkeeping changes hands — the first op after a Begin and
// after an End, adjacent indices, a shared index, index 0, one index in
// both classes, an index never reached — over one fixed script, unmasked
// and kind-masked, and compares each with the oracle.
func TestDatapathDirectedCases(t *testing.T) {
	// The script, by class stream; op i of the whole script is an Add, Sub
	// or Mul as i%3 is 0, 1 or 2, which gives each op's kind below:
	//   common 0-4   a s m a s
	//   Begin u      unique 0-4    m a s m a
	//   End          common 5-9    s m a s m
	//   Begin u      unique 5-9    a s m a s
	//     Begin c    common 10-12  m a s
	//     End        unique 10-11  m a
	//   End          common 13-17  s m a s m
	script := func(l *lockstep) {
		i := 0
		ops := func(n int) {
			for ; n > 0; n-- {
				l.step(i%3, float64(i%7+1))
				i++
			}
		}
		ops(5)
		l.begin("u", Unique)
		ops(5)
		l.sameCounts()
		l.end()
		ops(5)
		l.begin("u", Unique)
		ops(5)
		l.begin("c", Common)
		ops(3)
		l.sameCounts()
		l.end()
		ops(2)
		l.end()
		ops(5)
	}
	// fired lists the expected records in firing order, as op@region.
	cases := []struct {
		name  string
		plan  []Injection
		fired string
	}{
		{"first op after Begin", []Injection{
			{Class: Unique, Index: 5, Bit: 3}, {Class: Common, Index: 10, Bit: 52, Operand: 1}},
			"fadd@u fmul@c"},
		{"first op after End", []Injection{
			{Class: Common, Index: 5, Bit: 7}, {Class: Unique, Index: 10, Bit: 40}, {Class: Common, Index: 13, Bit: 1}},
			"fsub@ fmul@u fsub@"},
		{"last op before Begin and before End", []Injection{
			{Class: Common, Index: 4, Bit: 9}, {Class: Unique, Index: 4, Bit: 9}, {Class: Common, Index: 12, Bit: 9}},
			"fsub@ fadd@u fsub@c"},
		{"indices k and k+1", []Injection{
			{Class: Common, Index: 2, Bit: 11}, {Class: Common, Index: 3, Bit: 12, Operand: 1}},
			"fmul@ fadd@"},
		{"indices k and k+1 either side of a region", []Injection{
			{Class: Common, Index: 4, Bit: 11}, {Class: Common, Index: 5, Bit: 12}},
			"fsub@ fsub@"},
		{"two injections on one index", []Injection{
			{Class: Common, Index: 7, Bit: 3}, {Class: Common, Index: 7, Bit: 9, Operand: 1}},
			"fadd@ fadd@"},
		{"index 0", []Injection{{Class: Common, Index: 0, Bit: 62}}, "fadd@"},
		{"index 0 of the other class", []Injection{{Class: Unique, Index: 0, Bit: 62}}, "fmul@u"},
		{"same index in both classes", []Injection{
			{Class: Common, Index: 3, Bit: 20}, {Class: Unique, Index: 3, Bit: 20}},
			"fadd@ fmul@u"},
		{"indices never reached", []Injection{
			{Class: Common, Index: 18, Bit: 5}, {Class: Unique, Index: 1000, Bit: 5}, {Class: Unique, Index: 2, Bit: 5}},
			"fsub@u"},
		{"kind-masked, first op after Begin and after each End", []Injection{
			{Class: Unique, Index: 0, Bit: 3, KindMask: 1 << OpMul}, {Class: Common, Index: 2, Bit: 3, KindMask: 1 << OpSub},
			{Class: Unique, Index: 3, Bit: 3, KindMask: 1 << OpMul}},
			"fmul@u fsub@ fmul@u"},
		{"kind-masked beside unmasked on one op", []Injection{
			{Class: Unique, Index: 5, Bit: 3}, {Class: Unique, Index: 2, Bit: 4, KindMask: 1 << OpAdd, Operand: 1}},
			"fadd@u fadd@u"},
		{"kind-masked never reached", []Injection{
			{Class: Common, Index: 0, Bit: 3}, {Class: Unique, Index: 99, Bit: 3, KindMask: 1 << OpMul}},
			"fadd@"},
	}
	pooled := New()
	for _, tc := range cases {
		fresh := NewWithPlan(tc.plan)
		pooled.ResetPlan(tc.plan)
		for _, c := range []*Ctx{fresh, pooled} {
			l := newLockstep(t, c, tc.plan)
			script(l)
			l.sameObservations(len(tc.plan))
			var fired []string
			for _, rec := range c.Records() {
				fired = append(fired, rec.Op.String()+"@"+rec.Region)
			}
			if got := strings.Join(fired, " "); got != tc.fired {
				t.Fatalf("%s: fired %q, want %q", tc.name, got, tc.fired)
			}
		}
	}
}

// TestPooledCtxMatchesFresh asserts a reused (ResetPlan) context is
// observationally identical to a freshly constructed one over the same
// plan and operation sequence — the pooling determinism contract.
func TestPooledCtxMatchesFresh(t *testing.T) {
	pooled := New()
	rng := stats.NewRNG(97)
	for trial := 0; trial < 100; trial++ {
		plan := []Injection{
			{Class: Common, Index: uint64(rng.Intn(30)), Bit: uint(rng.Intn(64))},
			{Class: Unique, Index: uint64(rng.Intn(30)), Bit: 5, KindMask: 1 << OpMul},
		}
		fresh := NewWithPlan(plan)
		pooled.ResetPlan(plan)
		run := func(c *Ctx, seed uint64) float64 {
			seq := stats.NewRNG(seed)
			s := 1.0
			end := func() {}
			for i := 0; i < 200; i++ {
				if i == 50 {
					end = c.Begin("halo", Unique)
				}
				if i == 150 {
					end()
				}
				x := 1 + float64(seq.Intn(5))
				switch seq.Intn(3) {
				case 0:
					s = c.Add(s, x)
				case 1:
					s = c.Sub(s, x)
				default:
					s = c.Mul(s, 1+x/8)
				}
			}
			return s
		}
		seed := uint64(trial)
		sf, sp := run(fresh, seed), run(pooled, seed)
		if math.Float64bits(sf) != math.Float64bits(sp) {
			t.Fatalf("trial %d: pooled sum %g != fresh %g", trial, sp, sf)
		}
		if fresh.Counts() != pooled.Counts() {
			t.Fatalf("trial %d: pooled Counts %+v != fresh %+v", trial, pooled.Counts(), fresh.Counts())
		}
		if fresh.KindCounts() != pooled.KindCounts() {
			t.Fatalf("trial %d: pooled KindCounts differ", trial)
		}
		if !recordsEqual(fresh.Records(), pooled.Records()) {
			t.Fatalf("trial %d: pooled Records %+v != fresh %+v", trial, pooled.Records(), fresh.Records())
		}
		if !reflect.DeepEqual(fresh.RegionCounts(), pooled.RegionCounts()) {
			t.Fatalf("trial %d: pooled RegionCounts %+v != fresh %+v",
				trial, pooled.RegionCounts(), fresh.RegionCounts())
		}
		if fresh.Divs() != pooled.Divs() {
			t.Fatalf("trial %d: Divs differ", trial)
		}
	}
}
