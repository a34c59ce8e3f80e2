package main

import "slices"

// The metric catalogue is the benchmark's single definition of every name it
// prints: BENCHMARK.json and README.md are checked against it by the tests.

// Workload names, in the order the set runs them.
const (
	wStaticSim = "static-sim"
	wStaticTCP = "static-tcp"
	wDynamic   = "dynamic-edges"
	wIngest    = "ingest-churn"
	wServe     = "serve-topk"
	wCluster   = "cluster-2w"
)

type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{wStaticSim, "BA n=2000 m=2 P=8 on runtime.Sim through a Session, reps for --seconds: core install/relax does ~97% of the work; transport, ingest and serving do none"},
	{wStaticTCP, "same inputs and drive over runtime.NewWire + TCP loopback: only the runtime differs, so the gap to static-sim is the price of codec + transport"},
	{wDynamic, "BA n=1800 converged in set-up, then rounds of 8 barrier edge deletions and re-adds (eager rounds in the traced run): core/dynamic.go invalidate + re-seed, which static-* never runs"},
	{wIngest, "BA n=600, 60/25/15 add/eager-delete/re-add churn: open loop 80 ops/s timed to visibility, then a closed-loop burst: anytime queue/coalesce/publish + core.ApplyBatch dominate"},
	{wServe, "one real aacc -serve process, BA n=1000 with its own 1 op/s ingest; open loop 200 GET /topk per second on 2 connections: cli HTTP + anytime.TopK + BoundState reads beside writes"},
	{wCluster, "real binaries: 2 aacc workers + 1 coordinator batch run on BA n=2000, spawn to exit: dist control protocol, PeerMesh, runtime.Remote, graph loading x3 and process start-up"},
}

func allWorkloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// metricDef names one metric; README.md defines it. on lists the workloads
// that measure it; everywhere else --trace 1 reports it as 0 (the layer is
// bypassed there). exact marks counts that must repeat exactly for a fixed seed. bound
// is set for end-to-end metrics only.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	exact  bool
	on     []string
}

var (
	onAll       = allWorkloads()
	onStatic    = []string{wStaticSim, wStaticTCP}
	onInProcess = []string{wStaticSim, wStaticTCP, wDynamic, wIngest}
	onBinary    = []string{wServe, wCluster}
)

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, so README.md defines each per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: onAll},
	{name: "first_answer_ms", unit: "ms", better: "lower", bound: 0.25, on: onAll},
	{name: "exact_s", unit: "s", better: "lower", bound: 0.15, on: onAll},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, on: onAll},
}

// native are the end-to-end metrics the issue named, each measured by the
// untraced reps of the workloads it is defined on and printed by every run.
// The benchmark contract gates a metric on every workload or on none, so
// BENCHMARK.json lists them with the per-layer metrics, without a bound;
// README.md says which gated metric carries each.
var native = []metricDef{
	{name: "converge_s", unit: "s", better: "lower", on: []string{wStaticSim, wStaticTCP, wDynamic, wIngest, wCluster}},
	{name: "top10_exact_s", unit: "s", better: "lower", on: onStatic},
	{name: "del_to_exact_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "add_to_exact_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "ingest_ops_per_s", unit: "ops/s", better: "higher", on: []string{wIngest}},
	{name: "visible_ms_p50", unit: "ms", better: "lower", on: []string{wIngest}},
	{name: "topk_ms_p50", unit: "ms", better: "lower", on: []string{wServe}},
	{name: "topk_ms_p99", unit: "ms", better: "lower", on: []string{wServe}},
	{name: "fail_share", unit: "ratio", better: "lower", on: onAll},
}

// layers are the attribution metrics, measured by the traced run only.
// del_eager_to_exact_s is end-to-end in nature and stands first: an eager
// round costs a quarter of a 10 s run, which the gated run cannot report.
var layers = []metricDef{
	{name: "del_eager_to_exact_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "partition.dd_s", unit: "s", better: "lower", on: onStatic},
	{name: "partition.cut_edges", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "partition.imbalance", unit: "ratio", better: "lower", on: onStatic},
	{name: "oracle.seq_apsp_s", unit: "s", better: "lower", on: []string{wStaticSim, wStaticTCP, wDynamic}},
	{name: "core.slowdown_vs_seq", unit: "ratio", better: "lower", on: onStatic},
	{name: "core.del_vs_seq", unit: "ratio", better: "lower", on: []string{wDynamic}},
	{name: "core.new_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.ia_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.steps", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "core.step_s_sum", unit: "s", better: "lower", on: onStatic},
	{name: "core.step_s_max", unit: "s", better: "lower", on: onStatic},
	{name: "core.collect_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.exchange_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.install_relax_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.strategies_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.unattributed_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.rows_sent", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "core.rows_changed", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "core.messages", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "core.bytes_sent", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "core.scores_s", unit: "s", better: "lower", on: onStatic},
	{name: "core.del_apply_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.del_reconverge_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.del_steps", unit: "count", better: "lower", exact: true, on: []string{wDynamic}},
	{name: "core.del_eager_apply_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.del_eager_reconverge_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.del_eager_steps", unit: "count", better: "lower", exact: true, on: []string{wDynamic}},
	{name: "core.add_apply_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.add_reconverge_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.restart_s", unit: "s", better: "lower", on: []string{wDynamic}},
	{name: "core.del_vs_restart", unit: "ratio", better: "lower", on: []string{wDynamic}},
	{name: "runtime.exchange_s", unit: "s", better: "lower", on: onStatic},
	{name: "runtime.parallel_s", unit: "s", better: "lower", on: onStatic},
	{name: "runtime.exchange_rounds", unit: "count", better: "lower", exact: true, on: onStatic},
	{name: "transport.roundtrip_s", unit: "s", better: "lower", on: []string{wStaticTCP}},
	{name: "transport.frames", unit: "count", better: "lower", exact: true, on: []string{wStaticTCP}},
	{name: "transport.bytes", unit: "count", better: "lower", exact: true, on: []string{wStaticTCP}},
	{name: "core.wirecodec_s", unit: "s", better: "lower", on: []string{wStaticTCP}},
	{name: "anytime.first_epoch_s", unit: "s", better: "lower", on: onStatic},
	{name: "anytime.epochs", unit: "count", better: "lower", on: onStatic},
	{name: "anytime.publish_s_sum", unit: "s", better: "lower", on: onStatic},
	{name: "anytime.overhead_s", unit: "s", better: "lower", on: onStatic},
	{name: "anytime.enqueue_blocked_s", unit: "s", better: "lower", on: []string{wIngest}},
	{name: "anytime.generator_late_ms_max", unit: "ms", better: "lower", on: []string{wIngest}},
	{name: "anytime.visible_ms_p95", unit: "ms", better: "lower", on: []string{wIngest}},
	{name: "anytime.ops_per_epoch", unit: "ratio", better: "higher", on: []string{wIngest}},
	{name: "anytime.coalesce_ratio", unit: "ratio", better: "higher", on: []string{wIngest}},
	{name: "anytime.flush_to_exact_s", unit: "s", better: "lower", on: []string{wIngest}},
	{name: "centrality.topk_first_call_ms", unit: "ms", better: "lower", on: onStatic},
	{name: "centrality.topk_warm_call_us", unit: "us", better: "lower", on: onStatic},
	{name: "centrality.pruned_fraction_mean", unit: "ratio", better: "higher", on: []string{wServe}},
	{name: "centrality.resolved_k_mean", unit: "count", better: "higher", on: []string{wServe}},
	{name: "anytime.topk_server_ms_mean", unit: "ms", better: "lower", on: []string{wServe}},
	{name: "cli.ready_s", unit: "s", better: "lower", on: []string{wServe}},
	{name: "cli.http_overhead_ms", unit: "ms", better: "lower", on: []string{wServe}},
	{name: "cli.reported_wall_s", unit: "s", better: "lower", on: onBinary},
	{name: "dist.startup_s", unit: "s", better: "lower", on: []string{wCluster}},
	{name: "dist.install_relax_s_max", unit: "s", better: "lower", on: []string{wCluster}},
	{name: "dist.exchange_s_max", unit: "s", better: "lower", on: []string{wCluster}},
	{name: "dist.wire_rounds", unit: "count", better: "lower", exact: true, on: []string{wCluster}},
	{name: "dist.wire_retries", unit: "count", better: "lower", on: []string{wCluster}},
	{name: "proc.cpu_s", unit: "s", better: "lower", on: onAll},
	{name: "proc.cpu_util", unit: "ratio", better: "higher", on: onAll},
	{name: "go.alloc_mb", unit: "MB", better: "lower", on: onInProcess},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", on: onInProcess},
	{name: "go.num_gc", unit: "count", better: "lower", on: onInProcess},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", on: []string{wStaticSim, wStaticTCP, wIngest, wCluster}},
	{name: "bench.build_s", unit: "s", better: "lower", on: onBinary},
}

// perLayer is BENCHMARK.json's per_layer list: what --trace 1 reports.
var perLayer = slices.Concat(native, layers)

func measuredOn(m metricDef, workload string) bool { return slices.Contains(m.on, workload) }

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
