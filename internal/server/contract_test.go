package server

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"resmod/internal/dist"
	"resmod/internal/store"
)

// contractServer boots a service over a store with a fast sampler and
// computes one prediction for a keyed tenant, which makes every family
// emit a sample.  A coordinator then rosters one worker with
// self-reported stats and waits until its wildcard alert instance exists.
func contractServer(t *testing.T, coordinator bool) (*Server, string) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, SampleEvery: 5 * time.Millisecond, APIKeys: map[string]string{"k-a": "team-a"}}
	if coordinator {
		cfg.DistPool = dist.NewPool(dist.PoolConfig{HeartbeatTimeout: time.Minute})
	}
	srv, hs := newObsServer(t, cfg)
	code, _, v := postJSONHeader(t, hs.URL+"/v1/predictions", `{"app":"PENNANT","small":2,"large":4}`,
		map[string]string{"X-API-Key": "k-a"})
	if code != 202 {
		t.Fatalf("submit as team-a = %d: %v", code, v)
	}
	pollDone(t, hs.URL, v["id"].(string))
	if coordinator {
		cfg.DistPool.Heartbeat(cfg.DistPool.Register("cw1", "http://127.0.0.1:1"), &dist.WorkerStats{})
		deadline := time.Now().Add(10 * time.Second)
		for alertState(getAlerts(t, hs.URL), "worker-stale", "cw1") == "" {
			if time.Now().After(deadline) {
				t.Fatal("worker cw1 never produced a worker-stale instance")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return srv, hs.URL
}

var labelNameRE = regexp.MustCompile(`([a-z_]+)="`)

// expositionContract reduces a /metrics body to one line per family,
// sorted: name, TYPE, the distinct label-name sets its samples carry
// (histogram parts prefixed as parseProm does), and the HELP text.
func expositionContract(t *testing.T, text string) []string {
	t.Helper()
	fams := parseProm(t, text)
	var out []string
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, typ, _ := strings.Cut(rest, " ")
		sets := make(map[string]bool)
		for labels := range fams[name].samples {
			part, pairs, isHist := strings.Cut(labels, "|")
			if !isHist {
				part, pairs = "", labels
			}
			var names []string
			for _, m := range labelNameRE.FindAllStringSubmatch(pairs, -1) {
				names = append(names, m[1])
			}
			sets[part+"{"+strings.Join(names, ",")+"}"] = true
		}
		keys := make([]string, 0, len(sets))
		for k := range sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%s %s %s %s", name, typ, strings.Join(keys, ";"), fams[name].help))
	}
	sort.Strings(out)
	return out
}

// TestMetricsExpositionContract pins /metrics against the list captured
// from the tree before the registry existed: the families, their TYPE,
// HELP and sample label names, for a plain server and for a coordinator
// (the order of families in the document is the one thing left free).
// Adding a metric means adding its line to testdata/metrics_contract.txt,
// under the "#" heading naming the servers that expose it.
func TestMetricsExpositionContract(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics_contract.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	section := ""
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			section = rest
		} else if section == "every server" {
			want["plain server"] = append(want["plain server"], line)
			want["coordinator"] = append(want["coordinator"], line)
		} else {
			want[section] = append(want[section], line)
		}
	}
	for _, kind := range []string{"plain server", "coordinator"} {
		t.Run(kind, func(t *testing.T) {
			sort.Strings(want[kind])
			_, base := contractServer(t, kind == "coordinator")
			got := expositionContract(t, scrape(t, base))
			if !reflect.DeepEqual(got, want[kind]) {
				t.Fatalf("exposition differs from the contract\n--- got\n%s\n--- want\n%s",
					strings.Join(got, "\n"), strings.Join(want[kind], "\n"))
			}
		})
	}
}

// TestRetainedSeriesFeedEveryRule: every key of retained names a declared
// family, and one sampler tick on a coordinator with a registered worker
// yields every series a built-in rule reads — so renaming a family or a
// series cannot leave a rule silently watching nothing.
func TestRetainedSeriesFeedEveryRule(t *testing.T) {
	srv, base := contractServer(t, true)
	_, declared := fetchMetrics(t, base)
	for family := range retained {
		if declared[family] == nil {
			t.Errorf("retained names undeclared family %s", family)
		}
	}
	srv.sampler.SampleNow(time.Now())
	names := srv.series.Names()
	for _, r := range BuiltinRules(srv.cfg.SampleEvery) {
		prefix, wild := strings.CutSuffix(r.Series, "*")
		found := false
		for _, n := range names {
			if n == r.Series || (wild && strings.HasPrefix(n, prefix)) {
				found = true
			}
		}
		if !found {
			t.Errorf("rule %s reads series %s, which no sampler tick produced (have %v)", r.Name, r.Series, names)
		}
	}
}
