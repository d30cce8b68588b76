package main

import "strings"

// workloadDef is one named workload: why it exists and how to build it.
type workloadDef struct {
	name string
	// op is what ops_per_s and latency_p50_ms count on this workload.
	op  string
	why string
	// engine marks the workloads that drive the exper scheduler in this
	// process, the ones exper.speedup_vs_1thread is measured on.
	engine bool
	build  func(rc runConfig) instance
}

// workloads is the harness's registry; BENCHMARK.json names exactly these
// (registry_test.go holds the two in step).
var workloads = []workloadDef{
	{"predict_paper", "trial",
		"the paper's Fig. 5 pipeline on six apps: serial, p=4 and p=16 campaigns under the exper scheduler; server, store and dist idle",
		true, func(rc runConfig) instance { return &predictInstance{rc: rc} }},
	{"campaign_wide", "trial",
		"one p=64 campaign per app, so simmpi (64 rank goroutines on 2 cores) does most of the work; moves with collectives, not kernels",
		true, func(rc runConfig) instance { return &wideInstance{rc: rc} }},
	{"serve_warm", "request",
		"read mix against a restarted server over a filled store: admission, dedup, store front, JSON, /metrics, series; the engine idle",
		false, func(rc runConfig) instance { return &warmInstance{rc: rc} }},
	{"serve_cold", "job",
		"distinct jobs on an empty store: queue, scheduler, SSE, store puts, campaign cache and singleflight; the write path beside reads",
		false, func(rc runConfig) instance { return &coldInstance{rc: rc} }},
	{"dist_shard", "trial",
		"predict_paper's exact inputs sharded over 2 in-process workers on loopback HTTP; isolates coordinator/worker protocol overhead",
		true, func(rc runConfig) instance { return &predictInstance{rc: rc, dist: true} }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricDef is one reported metric.  bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which have none).  exact marks a count that must repeat
// exactly between runs of one commit with one seed.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 18

// endToEndMetrics are what a user of the system sees; every workload
// reports every one of them.  One operation is a fault-injection trial on
// the three engine workloads, a request on serve_warm and a job on
// serve_cold; one call is a PredictAll, a Session.Campaign, a request or
// a job from POST to terminal event.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayerMetrics are what a traced run reports: the layer probes (run on
// every workload, since they do not depend on it) and what the traced
// passes observed at each layer (0 where the workload leaves the layer
// idle).
var perLayerMetrics = layerMetrics(
	"lower ns", "fpe.clean_op_ns", "fpe.armed_op_ns", "fpe.exhausted_op_ns", "fpe.reset_plan_ns", "fpe.dot_1k_ns",
	"exact count", "fpe.golden_ops",

	"lower us", "simmpi.world_run_p8_us", "simmpi.world_run_p64_us", "simmpi.engine_run_p64_us",
	"simmpi.allreduce_p8_us", "simmpi.allreduce_p64_us", "simmpi.alltoall_p8_us", "simmpi.alltoall_p64_us",
	"simmpi.bcast_p64_us", "simmpi.sendrecv_ring_p8_us",
	"exact count", "simmpi.msgs_cg_p64", "simmpi.floats_cg_p64",

	"lower ms", "apps.cg_p1_ms", "apps.ft_p1_ms", "apps.mg_p1_ms", "apps.lu_p1_ms", "apps.minife_p1_ms", "apps.pennant_p1_ms",
	"apps.cg_p64_ms", "apps.ft_p64_ms", "apps.mg_p64_ms", "apps.lu_p64_ms", "apps.minife_p64_ms", "apps.pennant_p64_ms",

	"lower us", "faultsim.trial_p1_us", "faultsim.trial_p4_us", "faultsim.trial_p64_us",
	"lower frac", "faultsim.trial_overhead_frac_p4",
	"lower ms", "faultsim.golden_cg_p16_ms", "faultsim.shard_25_ms",
	"lower us", "faultsim.checkpoint_save_us", "faultsim.merge_shard_us",
	"exact bytes", "faultsim.checkpoint_bytes",
	"lower s", "faultsim.serial_campaign_s", "faultsim.small_campaign_s", "faultsim.unique_campaign_s",
	"faultsim.large_campaign_s", "faultsim.golden_s",
	"exact count", "faultsim.campaigns_executed", "faultsim.trials_executed", "faultsim.abnormal_trials", "faultsim.retried_trials",

	"lower ns", "core.predict_ns",

	"higher frac", "exper.cpu_util",
	"lower s", "exper.cpu_s", "exper.one_thread_wall_s",
	"higher ratio", "exper.speedup_vs_1thread",
	"exact count", "exper.campaigns_shared",

	"lower us", "store.put_us", "store.get_mem_us", "store.get_disk_us", "store.put_summary_us", "store.get_summary_us",
	"lower bytes", "store.summary_bytes", // carries the campaign's elapsed nanoseconds, so ±1 digit
	"lower count", "store.hits", "store.mem_hits", "store.misses", "store.puts", "store.evictions",
	"higher ratio", "store.mem_hit_ratio",

	"lower us", "server.post_hit_p50_us", "server.get_job_p50_us", "server.status_p50_us",
	"server.metrics_scrape_p50_us", "server.series_p50_us",
	"lower ms", "server.latency_p95_ms", "server.latency_p99_ms",
	"lower us", "server.handler_post_hit_us", "server.handler_get_job_us", "server.handler_metrics_us",
	"lower bytes", "server.metrics_bytes",
	"lower us", "server.submit_p50_us",
	"lower ms", "server.queue_wait_p50_ms", "server.compute_p50_ms",
	"lower count", "server.sse_events", "server.shed_429", "server.http_5xx",

	"lower us", "dist.spec_encode_us", "dist.response_decode_us",
	"exact bytes", "dist.shard_request_bytes",
	"lower bytes", "dist.shard_response_bytes",
	"lower ms", "dist.tiny_campaign_local_ms", "dist.tiny_campaign_overhead_ms",
	"exact count", "dist.campaigns_distributed", "dist.shards_completed",
	"lower count", "dist.shards_requeued",
	"lower s", "dist.local_pass_s",
	"lower ratio", "dist.worker_imbalance", "dist.overhead_vs_local",

	"lower ns", "telemetry.span_ns", "telemetry.recorder_trial_done_ns", "telemetry.progress_publish_ns",
	"lower us", "telemetry.sampler_tick_us", "telemetry.series_query_us", "telemetry.alert_eval_us",
	"lower count", "telemetry.spans_recorded",
	"lower frac", "telemetry.tracing_overhead_frac",

	"lower s", "trace.job_self_s", "trace.predict_self_s", "trace.golden_self_s", "trace.campaign_self_s",
	"trace.trial-batch_self_s", "trace.checkpoint_self_s", "trace.distribute_self_s", "trace.dispatch_self_s",
	"trace.shard_self_s", "trace.bench_call_self_s", "trace.bench_http_self_s", "trace.other_self_s", "trace.roots_s",
)

// layerMetrics expands the table above: an entry with a space sets the
// direction ("exact" = a count that must repeat, reported as lower is
// better) and the unit of the names that follow it.
func layerMetrics(table ...string) []metricDef {
	var defs []metricDef
	var cur metricDef
	for _, e := range table {
		if better, unit, ok := strings.Cut(e, " "); ok {
			cur = metricDef{unit: unit, better: better}
			if cur.exact = better == "exact"; cur.exact {
				cur.better = "lower"
			}
			continue
		}
		cur.name = e
		defs = append(defs, cur)
	}
	return defs
}

// declared is the BENCHMARK.json schema.
type declared struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []declaredNamed  `json:"workloads"`
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// declaration renders the registry as the BENCHMARK.json document.
func declaration() declared {
	d := declared{Command: []string{"go", "run", "-C", "benchmark", "resmod/benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, declaredNamed{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		bound := m.bound
		d.EndToEnd = append(d.EndToEnd, declaredMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayerMetrics {
		d.PerLayer = append(d.PerLayer, declaredMetric{m.name, m.unit, m.better, nil})
	}
	return d
}
