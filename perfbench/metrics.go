package main

// Workload names, as passed to --workload.
const (
	wServe   = "serve-mixed"
	wSweep   = "sweep"
	wOffline = "offline-batch"
)

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = []struct{ Name, Why string }{
	{wServe, "open-loop Poisson MR+BABI 3:1 into serve.DefaultConfig: the only load on the queue, batching window and per-request host forwards; half carry ragged caller sequences"},
	{wSweep, "core.NewEngine for MR and PTB, then EvaluateSet over inter/intra/combined x sets 1..10: the paper-reproduction path, serial Run, Layer.Analyzer, DRS, no queue, no batched GEMM"},
	{wOffline, "ClassifyBatch B=16 on a PTB-shaped LSTM (baseline, intra) and a GRU: the only load on lockstep PackedGemmRows and the gru package; Layer.Analyzer is never called"},
}

// metricDef declares one reported metric. End-to-end metrics carry the
// regression bound (the share of the parent's median by which the
// metric may worsen); per-layer metrics carry the end-to-end metric they
// should move and the workloads they are measured on.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
	On     string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; each workload's operation, tail percentile and
// throughput unit are defined next to the workload (serve.go, sweep.go,
// offline.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ok_share", Unit: "share", Better: "higher", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer is measured only in the traced run. A metric a workload does
// not exercise is reported as 0 and marked n/a in the readable output.
var perLayer = []metricDef{
	{"serve.queue_wait_ms.p50", "ms", "lower", 0, "latency_p50_ms", wServe},
	{"serve.queue_wait_ms.p99", "ms", "lower", 0, "latency_tail_ms", wServe},
	{"serve.service_ms.p50", "ms", "lower", 0, "latency_p50_ms,throughput_per_s", wServe},
	{"serve.service_ms.p99", "ms", "lower", 0, "latency_tail_ms,throughput_per_s", wServe},
	{"serve.batch_size.mean", "count", "higher", 0, "throughput_per_s", wServe},
	{"serve.host_busy_share", "share", "lower", 0, "throughput_per_s", wServe},
	{"serve.windows", "count", "lower", 0, "ok_share", wServe},
	{"serve.dropped_windows", "count", "lower", 0, "ok_share", wServe},
	{"serve.rejected", "count", "lower", 0, "ok_share", wServe},
	{"serve.failed_share", "share", "lower", 0, "ok_share", wServe},
	{"serve.warm_s", "s", "lower", 0, "setup_s", wServe},
	{"bench.gen_late_ms.p99", "ms", "lower", 0, "none (validity guard, must stay small)", wServe},
	{"lstm.classify_ms.MR", "ms", "lower", 0, "serve.service_ms", wServe},
	{"lstm.classify_ms.BABI", "ms", "lower", 0, "serve.service_ms", wServe},
	{"intercell.analyzer_ms", "ms", "lower", 0, "latency_p50_ms,throughput_per_s (not offline-batch)", wServe + "," + wSweep},
	{"intercell.analyzer_calls_per_run", "count", "lower", 0, "none (count)", wServe + "," + wSweep},
	{"model.build_s", "s", "lower", 0, "setup_s", wSweep + "," + wServe},
	{"lstm.collect_predictors_s", "s", "lower", 0, "setup_s", wSweep + "," + wServe},
	{"core.calibrate_s", "s", "lower", 0, "setup_s", wSweep + "," + wServe},
	{"core.evaluate_ms.inter", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"core.evaluate_ms.intra", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"core.evaluate_ms.combined", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"core.structure_ms", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"accuracy.score_ms", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"sched.kernels_ms", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"gpu.sim_ms", "ms", "lower", 0, "throughput_per_s", wSweep},
	{"lstm.run_ms.baseline", "ms", "lower", 0, "throughput_per_s,serve.service_ms", wSweep},
	{"lstm.run_ms.inter", "ms", "lower", 0, "throughput_per_s,serve.service_ms", wSweep},
	{"lstm.run_ms.intra", "ms", "lower", 0, "throughput_per_s,serve.service_ms", wSweep},
	{"lstm.run_ms.combined", "ms", "lower", 0, "throughput_per_s,serve.service_ms", wSweep},
	{"intracell.skip_frac", "share", "higher", 0, "none (count, must repeat exactly)", wSweep},
	{"intercell.tissues_per_layer", "count", "lower", 0, "none (count, must repeat exactly)", wSweep},
	{"gpu.kernels_per_point", "count", "lower", 0, "none (count, must repeat exactly)", wSweep},
	{"lstm.run_batch_ms.baseline", "ms", "lower", 0, "throughput_per_s", wOffline},
	{"lstm.run_batch_ms.intra", "ms", "lower", 0, "throughput_per_s", wOffline},
	{"gru.run_batch_ms", "ms", "lower", 0, "throughput_per_s", wOffline},
	{"lstm.alloc_kb_per_seq.serial", "KiB", "lower", 0, "live_heap_mb,latency_tail_ms", wOffline + "," + wServe},
	{"lstm.alloc_kb_per_seq.batch", "KiB", "lower", 0, "live_heap_mb,latency_tail_ms", wOffline + "," + wServe},
	{"tensor.packed_gemm_us", "us", "lower", 0, "throughput_per_s", wOffline + "," + wSweep},
	{"tensor.packed_gemm_gbps", "GB/s", "higher", 0, "throughput_per_s", wOffline + "," + wSweep},
	{"tensor.packed_gemm_rows_us", "us", "lower", 0, "throughput_per_s (offline-batch only)", wOffline},
	{"tensor.packed_gemm_rows_gbps", "GB/s", "higher", 0, "throughput_per_s (offline-batch only)", wOffline},
	{"tensor.packed_gemv_rows_us", "us", "lower", 0, "throughput_per_s,serve.service_ms (not offline-batch)", wSweep + "," + wServe},
	{"tensor.packed_gemv_rows_gbps", "GB/s", "higher", 0, "throughput_per_s,serve.service_ms (not offline-batch)", wSweep + "," + wServe},
	{"tensor.gemv_uo_us", "us", "lower", 0, "throughput_per_s,serve.service_ms", wSweep + "," + wServe},
	{"tensor.sigmoid_ns", "ns", "lower", 0, "throughput_per_s", wServe + "," + wSweep + "," + wOffline},
	{"tensor.tanh_ns", "ns", "lower", 0, "throughput_per_s", wServe + "," + wSweep + "," + wOffline},
	{"trace.overhead_share", "share", "lower", 0, "none (traced minus untraced operation latency)", wServe + "," + wSweep + "," + wOffline},
	{"trace.unaccounted_share", "share", "lower", 0, "none (decomposed span time left unexplained)", wServe + "," + wSweep + "," + wOffline},
	{"bench.steal_share", "share", "lower", 0, "none (CPU time the hypervisor took in the timed phase; every duration excludes it)", wServe + "," + wSweep + "," + wOffline},
}

// measure is one reported value with the number of samples behind it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, ms := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range ms {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
