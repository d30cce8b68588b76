package telemetry

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Registry is the one place a metric is declared: an ordered list of
// families, each a name, HELP text, TYPE and a collector that reports
// the family's current samples.  /metrics is WriteText over the list and
// the retention sampler is Source over a named subset of it, so a signal
// has one name, one reader and one kind wherever it surfaces.  Declare
// every family before the registry is shared between goroutines.
type Registry struct {
	fams []*family
}

type family struct {
	name, help, kind string // kind is the Prometheus TYPE
	collect          func(*Emitter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) declare(name, help, kind string, collect func(*Emitter)) {
	for _, f := range r.fams {
		if f.name == name {
			panic("telemetry: metric family " + name + " declared twice")
		}
	}
	r.fams = append(r.fams, &family{name: name, help: help, kind: kind, collect: collect})
}

// CounterFunc declares a counter family whose samples collect reports.
func (r *Registry) CounterFunc(name, help string, collect func(*Emitter)) {
	r.declare(name, help, "counter", collect)
}

// GaugeFunc declares a gauge family whose samples collect reports.
func (r *Registry) GaugeFunc(name, help string, collect func(*Emitter)) {
	r.declare(name, help, "gauge", collect)
}

// HistogramFunc declares a histogram family; collect reports through
// Emitter.Hist.
func (r *Registry) HistogramFunc(name, help string, collect func(*Emitter)) {
	r.declare(name, help, "histogram", collect)
}

// Counter is a registry-declared monotone count; the handle is the
// atomic itself (Add, Load).
type Counter struct{ atomic.Uint64 }

// Gauge is a registry-declared integer level; the handle is the atomic
// itself (Add, Store, Load).
type Gauge struct{ atomic.Int64 }

// Counter declares an unlabelled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, Value(c.Load))
	return c
}

// Gauge declares an unlabelled gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(name, help, Value(g.Load))
	return g
}

// Value adapts a scalar reader (an atomic's Load, a depth method) into
// the collector of an unlabelled family.
func Value[T uint64 | int64 | int | float64](read func() T) func(*Emitter) {
	return func(e *Emitter) { e.Add(float64(read())) }
}

// Emitter receives one family's samples from its collector, either
// rendering them as exposition lines (WriteText) or filing them under
// retained series names (Source).
type Emitter struct {
	f      *family
	buf    []byte  // WriteText: the exposition so far
	series string  // Source: the family's retained series name
	out    Samples // Source: this tick's readings
}

// Add reports one sample.  labels are alternating name, value pairs.
func (e *Emitter) Add(v float64, labels ...string) {
	if e.buf != nil {
		e.line("", v, labels, noLE)
		return
	}
	key := e.series
	for i := 1; i < len(labels); i += 2 {
		key += "/" + labels[i]
	}
	switch e.f.kind {
	case "counter":
		e.out.Counters[key] = v
	case "gauge":
		e.out.Gauges[key] = v
	}
}

// Hist reports one histogram as cumulative buckets, sum and count.
// Histograms have no retained form, so Source ignores them.
func (e *Emitter) Hist(s HistSnapshot, labels ...string) {
	if e.buf == nil {
		return
	}
	var cum uint64
	for i, le := range s.Bounds {
		cum += s.Counts[i]
		e.line("_bucket", float64(cum), labels, le)
	}
	e.line("_bucket", float64(s.Count), labels, math.Inf(1))
	e.line("_sum", s.Sum, labels, noLE)
	e.line("_count", float64(s.Count), labels, noLE)
}

// noLE marks a line that carries no le label.
var noLE = math.NaN()

// line appends `name+suffix{labels,le="…"} v`.
func (e *Emitter) line(suffix string, v float64, labels []string, le float64) {
	b := append(append(e.buf, e.f.name...), suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(append(b, sep), labels[i]...), '=')
		b = strconv.AppendQuote(b, labels[i+1])
		sep = ','
	}
	if !math.IsNaN(le) {
		b = append(appendNumber(append(append(b, sep), `le="`...), le), '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	e.buf = append(appendNumber(append(b, ' '), v), '\n')
}

// appendNumber is the exposition's one number format: integral values a
// float64 holds exactly print in plain decimal (a counter never reads
// 1e+06), everything else as the shortest %g.
func appendNumber(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteText renders every family in declaration order in the Prometheus
// text exposition format.  HELP and TYPE are written even for a family
// with no samples, so every family is discoverable before traffic.
func (r *Registry) WriteText(w io.Writer) error {
	e := Emitter{buf: make([]byte, 0, 16<<10)}
	for _, f := range r.fams {
		e.f = f
		e.buf = append(append(append(append(e.buf, "# HELP "...), f.name...), ' '), f.help...)
		e.buf = append(append(append(append(e.buf, "\n# TYPE "...), f.name...), ' '), f.kind...)
		e.buf = append(e.buf, '\n')
		f.collect(&e)
	}
	_, err := w.Write(e.buf)
	return err
}

// ServeHTTP is GET /metrics: WriteText with the format's content type.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w) // a failed write is the client hanging up
}

// Source returns a SampleSource over the families retain names (family
// name → series name): the sampler reads the same collector /metrics
// does, a counter family lands in Samples.Counters and a gauge family in
// Samples.Gauges, and a labelled sample becomes "<series>/<label value>".
func (r *Registry) Source(retain map[string]string) SampleSource {
	return func() Samples {
		e := Emitter{out: Samples{Gauges: map[string]float64{}, Counters: map[string]float64{}}}
		for _, f := range r.fams {
			if series, ok := retain[f.name]; ok {
				e.f, e.series = f, series
				f.collect(&e)
			}
		}
		return e.out
	}
}
