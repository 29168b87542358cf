package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// bounds, the projection of those onto the names every workload can report
// (BENCHMARK.json's end_to_end), and per-layer metrics with the end-to-end
// metric each is expected to move.

import "fedrlnas/internal/nas"

const (
	lower  = "lower"
	higher = "higher"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"pipeline", "the paper's own path P1-P4 in one process at K=10 hard sync: tensor/nn/nas do the work; parallel, wire, rpcfed, staleness pools and serve do none"},
	{"softsync", "200 enrolled, cohort 10, mixed device profiles, severe staleness with delay compensation, 2 workers: cohort, scenario, staleness and parallel work; a hard-sync fast path must leave it unmoved"},
	{"rpc", "8 participants over loopback TCP with the fp64 wire codec under hard sync: the only workload where wire, the rpcfed codec and the kernel socket path run"},
	{"serve", "open-loop inference at 1500/3000/6000 req/s plus 9000 req/s overload beside a resident training job: forward-only kernels, batching and the dispatcher yield trade latency against job rounds"},
}

// on builds a per-workload bound table.
func on(bound float64, names ...string) map[string]float64 {
	m := map[string]float64{}
	for _, n := range names {
		m[n] = bound
	}
	return m
}

func with(m map[string]float64, bound float64, names ...string) map[string]float64 {
	for _, n := range names {
		m[n] = bound
	}
	return m
}

// metricDef is one end-to-end metric. A workload reports it when it has a
// bound for it; the bound is the share of the baseline by which the metric
// may worsen before -compare calls it a regression (Abs: an absolute
// amount instead).
type metricDef struct {
	Name   string             `json:"name"`
	Unit   string             `json:"unit"`
	Better string             `json:"better"`
	Bound  map[string]float64 `json:"bound"`
	Abs    bool               `json:"absolute_bound,omitempty"`
	What   string             `json:"what"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", lower, on(0.25, "pipeline", "softsync", "rpc", "serve"), false,
		"median time to build the workload's system: dataset, New/NewServer+dial, job boot, model build, 64 warm-up requests"},
	{"rounds_per_s", "1/s", higher, with(with(on(0.08, "pipeline"), 0.10, "rpc"), 0.15, "softsync", "serve"), false,
		"P1+P2 rounds per second over the timed rounds; in serve, background-job rounds during the request windows"},
	{"round_ms_p50", "ms", lower, with(with(on(0.08, "pipeline"), 0.10, "rpc"), 0.15, "softsync"), false,
		"median wall time of one round"},
	{"round_ms_p99", "ms", lower, on(0.25, "pipeline", "softsync", "rpc"), false,
		"99th percentile wall time of one round"},
	{"pipeline_wall_s", "s", lower, on(0.08, "pipeline"), false,
		"P1 start to P4 end"},
	{"final_acc", "share", higher, on(0.05, "pipeline", "softsync", "rpc"), true,
		"P4 centralized test accuracy (pipeline); mean training accuracy of the last 10 rounds (softsync, rpc)"},
	{"virtual_s_per_round", "s", lower, on(0.01, "pipeline", "softsync"), false,
		"simulated seconds per round on the virtual clock (transmission + compute)"},
	{"wire_bytes_per_round", "B", lower, on(0.005, "rpc"), false,
		"bytes sent plus received per round at the server's sockets"},
	{"allocs_per_round", "count", lower, on(0.02, "pipeline", "softsync", "rpc"), false,
		"heap allocations per round"},
	{"peak_rss_mb", "MB", lower, with(on(0.15, "pipeline", "softsync", "serve"), 0.25, "rpc"), false,
		"maximum resident set of the run's process when the timed region ends (serve: before the overload phase)"},
	{"infer_ms_p50", "ms", lower, on(0.10, "serve"), false,
		"median request latency at 3000 req/s, from the instant the request was due"},
	{"infer_ms_p95", "ms", lower, on(0.15, "serve"), false,
		"95th percentile request latency at 3000 req/s, from due time"},
	{"infer_capacity_rps", "1/s", higher, on(0.10, "serve"), false,
		"requests completed per second while 9000 req/s are offered"},
	{"infer_max_rate_rps", "1/s", higher, on(0.5, "serve"), false,
		"highest of 1500/3000/6000 req/s with p99 <= 50 ms, no failure and no growing backlog; the bound is one step of the ladder"},
	{"failed_share", "share", lower, on(0, "pipeline", "softsync", "rpc", "serve"), true,
		"failed over attempted operations: rounds, replies, requests and output checks"},
}

// contractDef is one of BENCHMARK.json's end_to_end metrics. The driver
// wants every workload to report every one of them, so each is the first
// of From that the workload has: a round workload's unit of work is a
// round, serve's is a request.
type contractDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	From   []string
}

var contract = []contractDef{
	{"setup_s", "s", lower, 0.25, []string{"setup_s"}},
	{"wall_s", "s", lower, 0.25, []string{"pipeline_wall_s", "timed_wall_s"}},
	{"rounds_per_s", "1/s", higher, 0.25, []string{"rounds_per_s"}},
	{"ops_per_s", "1/s", higher, 0.25, []string{"infer_capacity_rps", "rounds_per_s"}},
	{"op_ms_p50", "ms", lower, 0.25, []string{"infer_ms_p50", "round_ms_p50"}},
	{"op_ms_p95", "ms", lower, 0.25, []string{"infer_ms_p95", "round_ms_p95"}},
	{"allocs_per_op", "count", lower, 0.15, []string{"allocs_per_round", "allocs_per_request"}},
	{"bytes_per_op", "B", lower, 0.25, []string{"wire_bytes_per_round", "submodel_bytes_per_round", "payload_bytes_per_request"}},
	{"peak_rss_mb", "MB", lower, 0.25, []string{"peak_rss_mb"}},
}

// project picks the contract metrics out of a workload's own.
func project(m metricSet) metricSet {
	out := metricSet{}
	for _, c := range contract {
		for _, from := range c.From {
			if v, ok := m[from]; ok {
				out[c.Name] = value{Value: v.Value, Unit: c.Unit, Samples: v.Samples}
				break
			}
		}
	}
	return out
}

// layerDef is one per-layer metric. Owner says where its value comes from
// in a traced run: "probe" (a direct call into the layer), "self" (the
// traced workload's own counters) or the workload whose body produces it.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Owner  string `json:"owner"`
}

// layerMetrics picks the per-layer metrics out of a traced run's.
func layerMetrics(m metricSet) metricSet {
	out := metricSet{}
	for _, d := range perLayer {
		out[d.Name] = m[d.Name]
	}
	return out
}

type layerMove struct {
	Layer string `json:"layer"`
	Moves string `json:"moves"`
}

// layerMoves is the prediction written down before measuring: which
// end-to-end metric each layer's numbers should move, and on which
// workload. Everywhere else the prediction is "no change".
var layerMoves = []layerMove{
	{"tensor", "rounds_per_s on pipeline, softsync, rpc; infer_capacity_rps on serve"},
	{"nn", "fwd+bwd+loss+sgd: round_ms_p50 on pipeline, softsync, rpc; fwd only: infer_ms_p50 and infer_capacity_rps on serve; clone_params: rounds_per_s and allocs_per_round on softsync only"},
	{"nas", "sub_fwd, sub_bwd, sampled_params: round_ms_p50 on pipeline, softsync, rpc; fixed_train_step: pipeline_wall_s only; fixed_fwd_batch16: infer_* on serve only"},
	{"data", "generate: setup_s; gather_augment: round_ms_p50 on pipeline and softsync"},
	{"controller", "round_ms_p50 on pipeline, softsync, rpc (expected below 1%)"},
	{"transmission", "round_ms_p50 (wall) and virtual_s_per_round (policy) on pipeline and softsync"},
	{"cohort", "round_ms_p50 on softsync only"},
	{"staleness", "rounds_per_s and final_acc on softsync; zero in pipeline"},
	{"fed", "fedavg_round, evaluate: pipeline_wall_s; materialized: peak_rss_mb on softsync"},
	{"parallel", "rounds_per_s on softsync; pipeline runs inline at Workers=1"},
	{"search", "rounds_per_s on the workload named; phases sum to pipeline_wall_s; checkpoint_save: round_ms_p99 on pipeline"},
	{"wire", "wire_bytes_per_round and round_ms_p50 on rpc only"},
	{"rpcfed", "new_server: setup_s on rpc; the rest: round_ms_p50 and rounds_per_s on rpc only"},
	{"serve", "infer_* and the job's rounds_per_s on serve only"},
	{"go", "round_ms_p99 and infer_ms_p95 on the traced workload"},
	{"bench", "nothing: the cost of the benchmark's own spans"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var defs []layerDef
	add := func(owner, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, layerDef{n, unit, better, owner})
		}
	}
	add("self", "GFLOP/s", higher, "tensor.gemm_gflops")
	add("self", "share", lower, "tensor.gemm_time_share")
	for _, k := range nas.AllOps[1:] { // "none" does no work
		add("probe", "us", lower, "nn.op."+k.String()+".fwd_us", "nn.op."+k.String()+".bwd_us")
	}
	add("probe", "us", lower, "nn.loss_us", "nn.sgd_step_us", "nn.clone_params_us",
		"nas.sub_fwd_us", "nas.sub_bwd_us", "nas.sampled_params_us", "nas.fixed_fwd_batch16_us", "nas.fixed_train_step_us")
	add("probe", "ms", lower, "data.generate_ms")
	add("probe", "us", lower, "data.gather_augment_us",
		"controller.sample_gates_us", "controller.logprob_grad_us", "controller.apply_us",
		"transmission.assign_us", "cohort.draw_us", "staleness.compensate_us")
	add("softsync", "share", lower, "staleness.late_share", "staleness.dropped_share")
	add("pipeline", "ms", lower, "fed.fedavg_round_ms")
	add("probe", "ms", lower, "fed.evaluate_ms")
	add("softsync", "count", lower, "fed.materialized")
	add("softsync", "ratio", higher, "parallel.scaling_w2")
	add("pipeline", "ms", lower, "search.new_ms", "search.warmup_round_ms_p50", "search.search_round_ms_p50")
	add("pipeline", "s", lower, "search.phase.warmup_s", "search.phase.search_s")
	add("pipeline", "ms", lower, "search.phase.derive_ms")
	add("pipeline", "s", lower, "search.phase.retrain_central_s", "search.phase.retrain_fed_s")
	add("pipeline", "ms", lower, "search.phase.eval_ms", "search.checkpoint_save_ms", "search.checkpoint_load_ms")
	add("pipeline", "share", lower, "search.unattributed_share")
	add("softsync", "share", lower, "search.soft_unattributed_share")
	add("probe", "us/MB", lower, "wire.encode_fp64_us_per_mb", "wire.decode_fp64_us_per_mb")
	add("probe", "B", lower, "wire.submodel_bytes")
	add("rpc", "ms", lower, "rpcfed.new_server_ms")
	add("probe", "ms", lower, "rpcfed.train_call_ms")
	add("rpc", "ms", lower, "rpcfed.encode_ms_per_round", "rpcfed.decode_ms_per_round", "rpcfed.rpc_call_ms_mean")
	add("rpc", "count", lower, "rpcfed.messages_per_round")
	add("rpc", "ms", lower, "rpcfed.non_train_ms")
	for _, r := range []string{"rate1500", "rate3000", "rate6000"} {
		add("serve", "ms", lower, "serve."+r+".p50_ms", "serve."+r+".p99_ms")
	}
	add("serve", "ms", lower, "serve.overload.p50_ms")
	add("serve", "count", higher, "serve.batch_fill_mean")
	add("serve", "1/s", lower, "serve.batches_per_s")
	add("serve", "ms", lower, "serve.batch_forward_ms_mean", "serve.queue_wait_ms_p50", "serve.idle.p50_ms", "serve.idle.p99_ms")
	add("serve", "1/s", higher, "serve.idle.capacity_rps")
	add("serve", "ms", lower, "serve.job_interference_ms")
	add("serve", "us", lower, "serve.http_overhead_us")
	add("serve", "ms", lower, "serve.gen_late_ms_max")
	add("serve", "count", lower, "serve.inflight_max")
	add("self", "B", lower, "go.alloc_bytes_per_round")
	add("self", "count", lower, "go.gc_cycles")
	add("self", "ms", lower, "go.gc_pause_ms_total")
	add("self", "share", lower, "bench.trace_overhead_share")
	return defs
}
