package telemetry

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Alerting over the retained series: declarative rules evaluated after
// every sampling tick, each driving a small state machine with
// hysteresis so operators see "firing" only after a condition holds for
// a while and "resolved" only after it clearly stops.  Like the rest of
// telemetry, the engine is observation-only: it reads the SeriesStore
// and publishes transitions onto the Progress bus; it never touches
// campaign execution.

// Alert states.
const (
	// AlertInactive: the condition does not hold (steady state).
	AlertInactive = "inactive"
	// AlertPending: the condition holds but not yet for the rule's For
	// duration.
	AlertPending = "pending"
	// AlertFiring: the condition has held for For — page the operator.
	AlertFiring = "firing"
	// AlertResolved: the alert fired and the condition has since cleared
	// for ClearFor; retained so operators see recent incidents.
	AlertResolved = "resolved"
)

// Rule is one declarative alert condition over a retained series.
//
// The grammar is deliberately small: a rule watches one series (exact
// name, or a trailing "/*" prefix wildcard that tracks each matching
// instance independently), compares its latest value against Threshold
// with Op, and fires after the comparison has held for For.  Hysteresis
// refines it: Clear, when set, is a separate threshold the value must
// cross back over (for ClearFor) before the alert resolves, so a series
// oscillating around Threshold does not flap.
type Rule struct {
	// Name identifies the rule in /v1/alerts, metrics, and bus events.
	Name string `json:"name"`
	// Series is the watched series name; a trailing "/*" matches every
	// series with the prefix, with independent alert state per instance.
	Series string `json:"series"`
	// Op is ">" (default) or "<".
	Op string `json:"op,omitempty"`
	// Threshold is the trip level for the comparison.
	Threshold float64 `json:"threshold"`
	// For is how long the condition must hold before pending→firing
	// (0: fire on first breach).
	For time.Duration `json:"for_ns,omitempty"`
	// Clear, when non-nil, is the hysteresis level the value must cross
	// back over before the alert resolves (default: Threshold).
	Clear *float64 `json:"clear,omitempty"`
	// ClearFor is how long the cleared condition must hold before
	// firing→resolved (0: resolve on first clear reading).
	ClearFor time.Duration `json:"clear_for_ns,omitempty"`
	// Help is the operator-facing one-liner shown in /v1/alerts.
	Help string `json:"help,omitempty"`
}

// wildcard reports whether the rule tracks per-instance series, and the
// prefix it matches.
func (r Rule) wildcard() (prefix string, ok bool) {
	if strings.HasSuffix(r.Series, "/*") {
		return strings.TrimSuffix(r.Series, "*"), true
	}
	return "", false
}

// breached reports whether v trips the rule's threshold.
func (r Rule) breached(v float64) bool {
	if r.Op == "<" {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// cleared reports whether v is back on the safe side of the hysteresis
// level.
func (r Rule) cleared(v float64) bool {
	level := r.Threshold
	if r.Clear != nil {
		level = *r.Clear
	}
	if r.Op == "<" {
		return v >= level
	}
	return v <= level
}

// Alert is one rule instance's current status, JSON-ready for
// /v1/alerts.
type Alert struct {
	Rule string `json:"rule"`
	// Instance is the concrete series name for wildcard rules ("" for
	// exact rules).
	Instance string  `json:"instance,omitempty"`
	Series   string  `json:"series"`
	State    string  `json:"state"`
	Value    float64 `json:"value"`
	// Threshold echoes the rule's trip level.
	Threshold float64 `json:"threshold"`
	// SinceUnix is when the alert entered its current state.
	SinceUnix int64  `json:"since_unix,omitempty"`
	Help      string `json:"help,omitempty"`
}

// alertState is the per-(rule,instance) state machine.
type alertState struct {
	state     string
	since     time.Time // entered current state
	breachAt  time.Time // first consecutive breached reading (pending timer)
	clearAt   time.Time // first consecutive cleared reading (resolve timer)
	lastValue float64
}

// AlertEngine evaluates rules against a SeriesStore after each sampling
// tick.  Transitions publish KindAlert events onto the bus; the full
// current set is available via Alerts.  Nil-safe.
type AlertEngine struct {
	store *SeriesStore
	bus   *Progress

	mu     sync.Mutex
	rules  []Rule
	states map[string]*alertState // key: rule + "\x00" + instance
}

// NewAlertEngine builds an engine over the store publishing transitions
// to bus (either may be nil; a nil store yields no data and no alerts).
func NewAlertEngine(store *SeriesStore, bus *Progress, rules []Rule) *AlertEngine {
	return &AlertEngine{
		store:  store,
		bus:    bus,
		rules:  rules,
		states: make(map[string]*alertState),
	}
}

// Rules returns the engine's rule set.  Nil-safe.
func (e *AlertEngine) Rules() []Rule {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rule(nil), e.rules...)
}

// Evaluate runs every rule against the store's current data and returns
// the alerts that changed state, publishing each transition onto the
// bus.  Call it from the sampler's OnSample hook so rules always judge
// fresh points.  Nil-safe.
func (e *AlertEngine) Evaluate(now time.Time) []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var changed []Alert
	transition := func(r Rule, inst ruleInstance, st *alertState) {
		st.since = now
		a := e.alertLocked(r, inst.instance, inst.series, st)
		changed = append(changed, a)
		e.bus.Publish(ProgressEvent{Kind: KindAlert, Key: a.Rule + keySep(a.Instance), State: a.State})
	}
	for _, r := range e.rules {
		for _, inst := range e.instancesLocked(r) {
			p, ok := e.store.Latest(inst.series)
			if !ok {
				continue
			}
			key := r.Name + "\x00" + inst.instance
			st := e.states[key]
			if st == nil {
				st = &alertState{state: AlertInactive, since: now}
				e.states[key] = st
			}
			prev := st.state
			e.step(r, st, p.Value, now)
			st.lastValue = p.Value
			if st.state != prev {
				transition(r, inst, st)
			}
		}
		// A wildcard instance whose series has left the store was retired
		// by its owner: resolve it if it was alerting, then forget it.
		if prefix, wild := r.wildcard(); wild {
			for key, st := range e.states {
				rule, inst, _ := strings.Cut(key, "\x00")
				if rule != r.Name {
					continue
				}
				if _, present := e.store.Latest(prefix + inst); present {
					continue
				}
				if st.state == AlertPending || st.state == AlertFiring {
					st.state = AlertResolved
					transition(r, ruleInstance{instance: inst, series: prefix + inst}, st)
				}
				delete(e.states, key)
			}
		}
	}
	return changed
}

// keySep renders the bus-event key suffix for an instance.
func keySep(instance string) string {
	if instance == "" {
		return ""
	}
	return "/" + instance
}

// ruleInstance pairs a wildcard match's display name with its concrete
// series.
type ruleInstance struct{ instance, series string }

// instancesLocked resolves the rule's concrete series: itself for exact
// rules, every matching store series (sorted) for wildcard rules.
func (e *AlertEngine) instancesLocked(r Rule) []ruleInstance {
	prefix, wild := r.wildcard()
	if !wild {
		return []ruleInstance{{instance: "", series: r.Series}}
	}
	var out []ruleInstance
	for _, name := range e.store.Names() {
		if inst, ok := strings.CutPrefix(name, prefix); ok {
			out = append(out, ruleInstance{instance: inst, series: name})
		}
	}
	return out
}

// step advances one state machine by one reading.
func (e *AlertEngine) step(r Rule, st *alertState, v float64, now time.Time) {
	breached := r.breached(v)
	cleared := r.cleared(v)
	switch st.state {
	case AlertInactive, AlertResolved:
		if breached {
			st.breachAt = now
			st.state = AlertPending
			if r.For <= 0 {
				st.state = AlertFiring
			}
		}
	case AlertPending:
		if !breached {
			st.state = AlertInactive
		} else if now.Sub(st.breachAt) >= r.For {
			st.state = AlertFiring
		}
	case AlertFiring:
		if cleared {
			if st.clearAt.IsZero() {
				st.clearAt = now
			}
			if now.Sub(st.clearAt) >= r.ClearFor {
				st.state = AlertResolved
			}
		} else {
			// Between Clear and Threshold (hysteresis band) or breached
			// again: stay firing, reset the resolve timer.
			st.clearAt = time.Time{}
		}
	}
	if st.state != AlertFiring {
		st.clearAt = time.Time{}
	}
}

// alertLocked renders one state as an Alert.
func (e *AlertEngine) alertLocked(r Rule, instance, series string, st *alertState) Alert {
	return Alert{
		Rule:      r.Name,
		Instance:  instance,
		Series:    series,
		State:     st.state,
		Value:     st.lastValue,
		Threshold: r.Threshold,
		SinceUnix: st.since.Unix(),
		Help:      r.Help,
	}
}

// Alerts returns every rule instance's current status (including
// inactive rules, so /v1/alerts documents what is watched), sorted by
// rule then instance.  Nil-safe.
func (e *AlertEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Alert
	for _, r := range e.rules {
		for _, inst := range e.instancesLocked(r) {
			st := e.states[r.Name+"\x00"+inst.instance]
			if st == nil {
				st = &alertState{state: AlertInactive}
			}
			out = append(out, e.alertLocked(r, inst.instance, inst.series, st))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}
