package main

import (
	"encoding/json"
	"time"
)

// This file is the suite's declaration: the workloads, the metric catalogue
// with units, directions and regression bounds, and the fixed environment.
// BENCHMARK.json at the repository root is generated from it
// (-print-benchmark-json) and smoke_test.go asserts the two agree.

// Fixed environment. The engine shape and GOMAXPROCS are part of the suite's
// definition: a number measured under another shape is a different metric.
const (
	gomaxprocs = 2 // pinned by main; the reference host has 2 CPUs
	planners   = 1
	executors  = 2
	partitions = 4

	runSeconds = 6 // BENCHMARK.json run_seconds: the timed part of one run
	nWindows   = 5 // timed windows per untraced run; a metric is the median over windows
	// A traced run alternates wrapper-off and wrapper-on windows so that
	// trace_overhead_pct comes from one process.
	nTraceWindows = 6

	hopDelay = 200 * time.Microsecond // injected per message on dist-ycsb
	sloP99Ms = 10.0                   // open-loop latency limit for serve.max_rate_in_slo
)

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDecl{
	{"harness-ycsb", "core plan + queue execution over a 100 MB YCSB table through serial ExecBatch calls: the paper's headline; serve/wal/repl/cluster/dist do no work, so a serving-layer change must not move it"},
	{"harness-tpcc", "same core engine on TPC-C: long multi-fragment txns, intra-txn variable dependencies, inserts, 1% logic aborts driving verdict repair; an executor change that helps point ops but costs undo shows here"},
	{"serve-wal-r20k", "qotp.Client over quecc-pipe with a real-disk group-commit WAL, open loop at 20000 txn/s: batches close on the delay trigger; the former and Future resolution dominate, core is nearly idle"},
	{"serve-wal-r80k", "same stack, open loop at 80000 txn/s: adds queueing in the former and the WAL, latency is timed from each txn's due time"},
	{"serve-wal-sat", "same stack, closed loop with 2048 outstanding Futures: prices the per-submission overhead between the batch harness and the serving path"},
	{"serve-ha", "the whole HA trip over real sockets: DialFailover, TCP framing, dedup admission, repl.Leader k=1 to two log-only followers over LoopbackTCP, quecc-pipe; closed loop, 512 outstanding; core does little"},
	{"dist-ycsb", "quecc-d on 4 nodes x 2 workers over ChanTransport with 200us injected per hop: message rounds, shadow-batch codec and the leader's plan split dominate; the only workload where dist does work"},
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics: what a user of the system sees. Every workload reports
// every one of them; on the batch-driven workloads (harness-*, dist-ycsb) a
// transaction's latency is the duration of the ExecBatch call that carried it.
//
// The gated tail is p95, not p99: rare multi-millisecond stalls (a slow fsync,
// a collection) take about 1% of the time on the reference host, so whether a
// window's p99 lands inside or outside them is a coin toss — it read 2.4 to
// 24 ms across windows of one serve-wal-r80k run — while p95 stays clear of
// them. p99 and p99.9 are reported as per-layer metrics, without a bound.
//
// The bounds are what the reference host can resolve (README, "Observed
// run-to-run spread"): across three ten-seed sets the spreads reached 10 % on
// throughput, 18 % on median latency (serve-wal-r80k) and 32 % on p95, and the
// host's own speed drifts by about 12 % between two quarters of an hour, so
// the issue's 10 / 10 / 20 % gates would reject unchanged code.
var endToEnd = []metricDecl{
	{"txn_per_s", "1/s", "higher", 0.15},
	{"lat_p50_ms", "ms", "lower", 0.20},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, named layer.metric with layer = package name. They are
// informational (no bound). A layer that does no work on a workload reports 0
// for its counters; probes (micro-measurements of one layer alone) run in
// every traced run.
var perLayer = []metricDecl{
	{"core.plan_ns_per_txn", "ns", "lower", 0},
	{"core.exec_ns_per_txn", "ns", "lower", 0},
	{"core.plan_share", "%", "lower", 0},
	{"core.reexec_per_ktxn", "1/ktxn", "lower", 0},
	{"core.user_aborts_per_ktxn", "1/ktxn", "lower", 0},
	{"core.queue_skew", "ratio", "lower", 0},

	{"storage.get_ns", "ns", "lower", 0},
	{"storage.insert_ns", "ns", "lower", 0},
	{"storage.statehash_ms", "ms", "lower", 0},
	{"storage.snapshot_mb_per_s", "MB/s", "higher", 0},

	{"txn.encode_ns_per_txn", "ns", "lower", 0},
	{"txn.decode_ns_per_txn", "ns", "lower", 0},
	{"txn.wire_bytes_per_txn", "B", "lower", 0},
	{"txn.arena_bytes_per_txn", "B", "lower", 0},

	{"serve.submit_ns_per_txn", "ns", "lower", 0},
	{"serve.batch_fill_avg", "ratio", "higher", 0},
	{"serve.batches_per_s", "1/s", "lower", 0},
	{"serve.form_wait_ms_p50", "ms", "lower", 0},
	{"serve.log_ms_per_batch", "ms", "lower", 0},
	{"serve.dispatch_ms_per_batch", "ms", "lower", 0},
	{"serve.engine_ms_per_batch", "ms", "lower", 0},
	{"serve.resolve_ms_per_batch", "ms", "lower", 0},
	{"serve.engine_idle_share", "%", "higher", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"serve.blocked_submits", "count", "lower", 0},
	{"serve.gen_lag_ms_p99", "ms", "lower", 0},
	{"serve.backlog_max", "count", "lower", 0},
	{"serve.invalid_windows", "count", "lower", 0},
	{"serve.max_rate_in_slo", "1/s", "higher", 0},
	{"serve.exec1_us_inproc", "us", "lower", 0},
	{"serve.exec1_us_tcp", "us", "lower", 0},
	{"serve.dedup_admit_ns", "ns", "lower", 0},

	{"wal.log_ms_per_batch_p50", "ms", "lower", 0},
	{"wal.log_ms_per_batch_p99", "ms", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},
	{"wal.fsync_ms_p50", "ms", "lower", 0},
	{"wal.writes_per_batch", "ratio", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.write_amp", "ratio", "lower", 0},
	{"wal.append_mb_per_s", "MB/s", "higher", 0},
	{"wal.recover_s", "s", "lower", 0},

	{"repl.log_ms_per_batch_p50", "ms", "lower", 0},
	{"repl.log_ms_per_batch_p99", "ms", "lower", 0},
	{"repl.ack_wait_ms_avg", "ms", "lower", 0},
	{"repl.follower_lag_max", "count", "lower", 0},
	{"repl.degraded_commits", "count", "lower", 0},
	{"repl.msgs_per_batch", "ratio", "lower", 0},
	{"repl.bytes_per_batch", "B", "lower", 0},

	{"cluster.msgs_per_txn", "ratio", "lower", 0},
	{"cluster.bytes_per_msg", "B", "lower", 0},
	{"cluster.bytes_per_txn", "B", "lower", 0},
	{"cluster.tcp_rtt_us", "us", "lower", 0},
	{"cluster.tcp_allocs_per_msg", "count", "lower", 0},
	{"cluster.chan_send_ns", "ns", "lower", 0},

	{"dist.batch_ms_p99", "ms", "lower", 0},
	{"dist.msgs_per_batch", "ratio", "lower", 0},
	{"dist.hop_floor_ms", "ms", "lower", 0},
	{"dist.over_floor_ms", "ms", "lower", 0},

	{"obs.window_observe_ns", "ns", "lower", 0},
	{"obs.counter_inc_ns", "ns", "lower", 0},
	{"obs.scrape_ms", "ms", "lower", 0},
	{"metrics.hist_observe_ns", "ns", "lower", 0},

	{"workload.gen_ns_per_txn", "ns", "lower", 0},
	{"workload.gen_share", "%", "lower", 0},

	{"proc.cpu_us_per_txn", "us", "lower", 0},
	{"proc.allocs_per_txn", "count", "lower", 0},
	{"proc.alloc_bytes_per_txn", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},

	{"trace.form_share", "%", "lower", 0},
	{"trace.log_share", "%", "lower", 0},
	{"trace.engine_share", "%", "lower", 0},
	{"trace.resolve_share", "%", "lower", 0},
	{"trace.stage_sum_err_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	{"lat_p99_ms", "ms", "lower", 0},
	{"lat_p999_ms", "ms", "lower", 0},
}

// benchmarkJSON renders the declaration in the BENCHMARK.json schema.
func benchmarkJSON() []byte {
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDecl, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layerDecl{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(out, '\n')
}
