package telemetry

import (
	"testing"
	"time"
)

// feed writes one gauge point per second into the store and evaluates
// the engine after each, returning the final state of the named rule.
func feed(t *testing.T, store *SeriesStore, eng *AlertEngine, series string, base time.Time, values []float64) {
	t.Helper()
	for i, v := range values {
		now := base.Add(time.Duration(i) * time.Second)
		store.Observe(series, now, v)
		eng.Evaluate(now)
	}
}

func ruleState(t *testing.T, eng *AlertEngine, rule, instance string) string {
	t.Helper()
	for _, a := range eng.Alerts() {
		if a.Rule == rule && a.Instance == instance {
			return a.State
		}
	}
	t.Fatalf("rule %s instance %q not in Alerts()", rule, instance)
	return ""
}

func TestAlertLifecycleTable(t *testing.T) {
	clear := 5.0
	cases := []struct {
		name   string
		rule   Rule
		values []float64
		want   string
	}{
		{
			name:   "inactive below threshold",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10},
			values: []float64{1, 2, 3},
			want:   AlertInactive,
		},
		{
			name:   "fires immediately with no for-duration",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10},
			values: []float64{11},
			want:   AlertFiring,
		},
		{
			name:   "pending until for-duration elapses",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, For: 5 * time.Second},
			values: []float64{11, 12},
			want:   AlertPending,
		},
		{
			name:   "firing after for-duration",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, For: 2 * time.Second},
			values: []float64{11, 12, 13},
			want:   AlertFiring,
		},
		{
			name:   "pending cancels when condition stops",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, For: 10 * time.Second},
			values: []float64{11, 12, 3},
			want:   AlertInactive,
		},
		{
			name:   "resolves when cleared",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10},
			values: []float64{11, 12, 3},
			want:   AlertResolved,
		},
		{
			name:   "hysteresis band keeps firing",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, Clear: &clear},
			values: []float64{11, 7, 7, 7}, // 7 is below Threshold but above Clear
			want:   AlertFiring,
		},
		{
			name:   "hysteresis resolves below clear level",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, Clear: &clear},
			values: []float64{11, 7, 4},
			want:   AlertResolved,
		},
		{
			name:   "clear-for delays resolve",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, ClearFor: 5 * time.Second},
			values: []float64{11, 3, 3},
			want:   AlertFiring,
		},
		{
			name:   "clear-for elapses then resolves",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, ClearFor: 2 * time.Second},
			values: []float64{11, 3, 3, 3, 3},
			want:   AlertResolved,
		},
		{
			name:   "re-breach after resolve goes pending again",
			rule:   Rule{Name: "r", Series: "x", Threshold: 10, For: 5 * time.Second},
			values: []float64{11, 11, 11, 11, 11, 11, 11, 3, 12},
			want:   AlertPending,
		},
		{
			name:   "less-than operator",
			rule:   Rule{Name: "r", Series: "x", Op: "<", Threshold: 2},
			values: []float64{5, 1},
			want:   AlertFiring,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewSeriesStore(Window{Step: time.Second, Cap: 128})
			eng := NewAlertEngine(store, nil, []Rule{tc.rule})
			feed(t, store, eng, "x", time.Unix(10000, 0), tc.values)
			if got := ruleState(t, eng, "r", ""); got != tc.want {
				t.Fatalf("state = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestAlertClearForCountsSamples: at a 1 s cadence into 10 s buckets, a
// rule whose ClearFor spans two samples resolves on the second cleared
// sample, however the bucket's mean still reads.
func TestAlertClearForCountsSamples(t *testing.T) {
	store := NewSeriesStore()
	eng := NewAlertEngine(store, nil, []Rule{{Name: "r", Series: "x", Threshold: 1, ClearFor: time.Second}})
	want := []string{AlertFiring, AlertFiring, AlertResolved}
	for i, v := range []float64{10, 0, 0} {
		now := time.Unix(10000+int64(i), 0)
		store.Observe("x", now, v)
		eng.Evaluate(now)
		if got := ruleState(t, eng, "r", ""); got != want[i] {
			t.Fatalf("after sample %d: state = %s, want %s", i, got, want[i])
		}
	}
}

func TestAlertWildcardInstances(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 128})
	eng := NewAlertEngine(store, nil, []Rule{{
		Name: "stale", Series: "hb_age/*", Threshold: 30,
	}})
	base := time.Unix(30000, 0)
	store.Observe("hb_age/w1", base, 5)
	store.Observe("hb_age/w2", base, 99)
	eng.Evaluate(base)
	if got := ruleState(t, eng, "stale", "w1"); got != AlertInactive {
		t.Fatalf("w1 state = %s, want inactive", got)
	}
	if got := ruleState(t, eng, "stale", "w2"); got != AlertFiring {
		t.Fatalf("w2 state = %s, want firing", got)
	}
	// w2 recovers; w1 unaffected.
	store.Observe("hb_age/w2", base.Add(time.Second), 3)
	eng.Evaluate(base.Add(time.Second))
	if got := ruleState(t, eng, "stale", "w2"); got != AlertResolved {
		t.Fatalf("w2 state after recovery = %s, want resolved", got)
	}
}

// TestAlertRetiredInstanceResolves: when a wildcard instance's series
// leaves the store (its owner retired it), a firing alert publishes
// resolved and the instance is forgotten; a quiet instance just goes.
func TestAlertRetiredInstanceResolves(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 128})
	bus := NewProgress()
	eng := NewAlertEngine(store, bus, []Rule{{Name: "stale", Series: "hb_age/*", Threshold: 30}})
	base := time.Unix(31000, 0)
	store.Observe("hb_age/w1", base, 5)
	store.Observe("hb_age/w2", base, 99)
	eng.Evaluate(base)

	store.Drop("hb_age/w1")
	store.Drop("hb_age/w2")
	changed := eng.Evaluate(base.Add(time.Second))
	if len(changed) != 1 || changed[0].Instance != "w2" || changed[0].State != AlertResolved {
		t.Fatalf("transitions on retirement = %+v, want only w2 resolved", changed)
	}
	if got := eng.Alerts(); len(got) != 0 {
		t.Fatalf("alerts after retirement = %+v, want none", got)
	}
	evs := bus.Latest()
	if len(evs) != 1 || evs[0].Key != "stale/w2" || evs[0].State != AlertResolved {
		t.Fatalf("bus after retirement = %+v, want stale/w2 resolved", evs)
	}
	// Nothing lingers: a later evaluation has no instance to transition.
	if changed := eng.Evaluate(base.Add(2 * time.Second)); len(changed) != 0 {
		t.Fatalf("retired instance transitioned again: %+v", changed)
	}
}

func TestAlertTransitionsPublishOnBus(t *testing.T) {
	store := NewSeriesStore(Window{Step: time.Second, Cap: 128})
	bus := NewProgress()
	sub := bus.Subscribe(16)
	defer sub.Close()
	eng := NewAlertEngine(store, bus, []Rule{{
		Name: "shed", Series: "sheds", Threshold: 1, For: time.Second,
	}})
	base := time.Unix(40000, 0)
	feed(t, store, eng, "sheds", base, []float64{5, 5, 5, 0})

	var states []string
	for len(states) < 3 {
		select {
		case ev := <-sub.Events():
			if ev.Kind != KindAlert {
				t.Fatalf("unexpected event kind %q", ev.Kind)
			}
			if ev.Key != "shed" {
				t.Fatalf("event key = %q, want shed", ev.Key)
			}
			states = append(states, ev.State)
		case <-time.After(time.Second):
			t.Fatalf("bus events missing; got %v", states)
		}
	}
	want := []string{AlertPending, AlertFiring, AlertResolved}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("bus transitions = %v, want %v", states, want)
		}
	}
}

func TestAlertEngineNilSafe(t *testing.T) {
	var eng *AlertEngine
	if eng.Evaluate(time.Now()) != nil || eng.Alerts() != nil || eng.Rules() != nil {
		t.Fatal("nil engine must report nothing")
	}
	// Engine over a nil store: no data, no transitions, no panic.
	live := NewAlertEngine(nil, nil, []Rule{{Name: "r", Series: "x", Threshold: 1}})
	if got := live.Evaluate(time.Now()); got != nil {
		t.Fatalf("nil-store engine produced transitions: %+v", got)
	}
}
