// Command bench is the repository's one benchmark: four workloads over the
// federated model search (pipeline, softsync, rpc, serve), end-to-end
// metrics with regression bounds, per-layer probes and a traced run. See
// README.md in this directory.
//
//	go run . -workload NAME [-seed N] [-seconds S] [-trace 0|1]   one run, result JSON on the last line
//	go run .  [-seed N] [-seconds S]                              every workload, end to end and traced
//	go run . -compare A.json B.json                               regression check between two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const (
	// fullSeconds is the timed length the workload sizes in ISSUE 12 were
	// measured for; -seconds S scales every count by S/fullSeconds.
	fullSeconds = 30.0
	// committedSeconds is BENCHMARK.json's run_seconds, the default size.
	committedSeconds = 20.0
	// smokeSeconds is the -smoke size, about 1/50 of full.
	smokeSeconds = 0.6
	outDir       = "out"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload in this process: pipeline, softsync, rpc or serve (empty: all, each in a fresh process)")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", committedSeconds, "timed length to size the workload for; counts scale by seconds/30")
		trace    = fs.Int("trace", 0, "1: the traced run (per-layer metrics, spans in out/trace-<workload>.jsonl)")
		smoke    = fs.Bool("smoke", false, "run at about 1/50 size (same as -seconds 0.6)")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments; exit non-zero on a regression")
		tables   = fs.Bool("tables", false, "print BENCHMARK.json as the metric tables define it and exit")
		expectFl = fs.Bool("update-expect", false, "with no -workload at -seed 1: rewrite expect.json from this run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	switch {
	case *tables:
		return printBenchmarkJSON(os.Stdout, int(*seconds))
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *workload == "":
		return runAll(*seed, *seconds, *expectFl)
	}
	return runOne(*workload, *seed, *seconds, *trace == 1)
}

// runBody dispatches to a workload's body.
func runBody(name string, o opts) (*result, error) {
	switch name {
	case "pipeline", "softsync":
		return runSearch(name, o)
	case "rpc":
		return runRPC(o)
	case "serve":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// line is the object the driver reads from the last line of stdout. A
// metric there is a value and a unit and nothing else; sample counts stay
// in the printed table and the result file.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lineMetrics(m metricSet) map[string]lineMetric {
	out := make(map[string]lineMetric, len(m))
	for k, v := range m {
		out[k] = lineMetric{v.Value, v.Unit}
	}
	return out
}

// runOne is one run in this process: end to end with tracing off, or the
// traced run. It prints every metric by name and unit, saves the full
// result under out/, and ends with the driver's JSON line.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	o := opts{seed: seed, scale: seconds / fullSeconds, dir: scratch}

	var res *result
	var err error
	var out line
	if traced {
		if res, err = tracedRun(name, o); err != nil {
			return err
		}
		out.Metrics = lineMetrics(layerMetrics(res.Metrics))
	} else {
		if res, err = runBody(name, o); err != nil {
			return err
		}
		out.Metrics = lineMetrics(project(res.Metrics))
	}
	printMetrics(res.Metrics)
	for _, p := range res.Problems {
		fmt.Println("# FAILED:", p)
	}
	if err := writeJSON(resultPath(name, traced), res); err != nil {
		return err
	}
	out.Correct, out.Attempted, out.Failed = res.Failed == 0, res.Attempted, res.Failed
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// resultPath is where a single run leaves its full result for runAll.
func resultPath(workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, kind))
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		if v.Samples > 0 {
			fmt.Printf("%-36s %16.6f %-8s n=%d\n", k, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Printf("%-36s %16.6f %s\n", k, v.Value, v.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracedRun produces every per-layer metric for one workload. The named
// workload's body runs twice at a quarter of the end-to-end size — once
// untraced, as the base of bench.trace_overhead_share, once traced — then
// the probes, then the other three bodies at a fiftieth so that the
// metrics they own are measured too rather than left blank. Compare a
// per-layer number only with the same number from the same workload's
// traced run.
func tracedRun(name string, o opts) (*result, error) {
	quarter := o
	quarter.scale = o.scale / 4
	base, err := runBody(name, quarter)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	quarter.tr, quarter.layers = tr, true
	res, err := runBody(name, quarter)
	if err != nil {
		return nil, err
	}
	bodies := map[string]*result{name: res}
	probeOpts := o
	probeOpts.tr = tr
	probes, err := runProbes(probeOpts)
	if err != nil {
		return nil, err
	}
	fill := quarter
	fill.scale = o.scale / 50
	for _, w := range workloads {
		if w.Name == name {
			continue
		}
		other, err := runBody(w.Name, fill)
		if err != nil {
			return nil, err
		}
		bodies[w.Name] = other
		res.Attempted += other.Attempted
		res.Failed += other.Failed
		res.Problems = append(res.Problems, other.Problems...)
	}
	derive(bodies, probes)

	m := res.Metrics
	rate := project(m)["ops_per_s"].Value
	m.put("bench.trace_overhead_share", 1-rate/project(base.Metrics)["ops_per_s"].Value, "share")
	for _, d := range perLayer {
		switch d.Owner {
		case "self":
		case "probe":
			m[d.Name] = probes[d.Name]
		default:
			m[d.Name] = bodies[d.Owner].Metrics[d.Name]
		}
		if _, ok := m[d.Name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", d.Name)
		}
	}
	m.put("failed_share", float64(res.Failed)/float64(res.Attempted), "share")
	if err := tr.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// derive computes the per-layer metrics that combine a body's round time
// with the probes' per-call costs. The unattributed shares are one minus
// what the probes explain of a median round: every cohort member has gates
// drawn and sized, every member that computes (offline and dropped ones do
// not) pays for a batch, a sub-model forward and backward, the loss and its
// policy gradient, and the server pays once for assignment, optimizer and
// controller — plus, under soft sync, the θ snapshot, the cohort draw and
// one compensation per late reply.
func derive(bodies map[string]*result, probes metricSet) {
	us := func(name string) float64 { return probes[name].Value }
	const cohortSize = 10
	perMember := us("controller.sample_gates_us") + us("nas.sampled_params_us")
	perComputed := us("data.gather_augment_us") + us("nas.sub_fwd_us") + us("nas.sub_bwd_us") + us("nn.loss_us") + us("controller.logprob_grad_us")
	perRound := us("transmission.assign_us") + us("nn.sgd_step_us") + us("controller.apply_us")
	unattributed := func(body *result, workers, extraUs float64) float64 {
		attributed := cohortSize*perMember + body.Metrics["search.computed_per_round"].Value*perComputed + perRound + extraUs
		return 1 - attributed/(body.Metrics["round_ms_p50"].Value*1e3*workers)
	}
	p, s := bodies["pipeline"], bodies["softsync"]
	p.Metrics.put("search.unattributed_share", unattributed(p, 1, 0), "share")
	soft := us("nn.clone_params_us") + us("cohort.draw_us") + us("staleness.compensate_us")*s.Metrics["staleness.late_per_round"].Value
	s.Metrics.put("search.soft_unattributed_share", unattributed(s, 2, soft), "share")
	r := bodies["rpc"]
	r.Metrics.put("rpcfed.non_train_ms", r.Metrics["round_ms_p50"].Value-rpcK*us("rpcfed.train_call_ms")/2, "ms")
}
