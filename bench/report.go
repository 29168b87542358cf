package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fedrlnas/internal/tensor"
)

// envelope is a complete set of results with what is needed to read them
// later: where and on what they were measured, every metric's unit,
// direction and bound, and the layer table the per-layer numbers are read
// against. -compare takes two of these.
type envelope struct {
	Commit     string                `json:"commit"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NProc      int                   `json:"nproc"`
	CPUModel   string                `json:"cpu_model"`
	Kernel     tensor.KernelFeatures `json:"kernel"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	// Scale is the common factor applied to every round, step and
	// duration count of ISSUE 12's sizes (seconds/30).
	Scale      float64              `json:"scale"`
	Start      time.Time            `json:"start"`
	Workloads  []workloadDef        `json:"workloads"`
	EndToEnd   []metricDef          `json:"end_to_end"`
	PerLayer   []layerDef           `json:"per_layer"`
	LayerMoves []layerMove          `json:"layer_moves"`
	Results    map[string]runResult `json:"results"`
}

type runResult struct {
	EndToEnd  metricSet         `json:"end_to_end"`
	PerLayer  metricSet         `json:"per_layer"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Exact     map[string]string `json:"exact"`
}

// expectation is expect.json: the exactly repeatable values of a complete
// run at -seed 1 and the committed size.
type expectation struct {
	Seconds float64                      `json:"seconds"`
	Exact   map[string]map[string]string `json:"exact"`
}

const expectFile = "expect.json"

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAll runs every workload end to end and traced, each run in a fresh
// process so set-up time, peak RSS and allocation counts belong to it
// alone, then prints and saves the envelope.
func runAll(seed int64, seconds float64, updateExpect bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := envelope{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: tensor.KernelInfo(), Seed: seed, Seconds: seconds, Scale: seconds / fullSeconds,
		Start: time.Now().UTC(), Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer, LayerMoves: layerMoves,
		Results: map[string]runResult{},
	}
	var failed []string
	for _, w := range workloads {
		rr := runResult{}
		for _, traced := range []int{0, 1} {
			fmt.Printf("== %s, trace %d\n", w.Name, traced)
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res result
			if err := readJSON(resultPath(w.Name, traced == 1), &res); err != nil {
				return fmt.Errorf("%s: %v (run: %v)", w.Name, err, runErr)
			}
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s trace %d: %v", w.Name, traced, runErr))
			}
			rr.Attempted += res.Attempted
			rr.Failed += res.Failed
			rr.Problems = append(rr.Problems, res.Problems...)
			if traced == 0 {
				rr.EndToEnd, rr.Exact = res.Metrics, res.Exact
			} else {
				rr.PerLayer = layerMetrics(res.Metrics)
			}
		}
		env.Results[w.Name] = rr
	}
	printEnvelope(os.Stdout, env)
	if err := writeJSON(filepath.Join(outDir, "results.json"), env); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", filepath.Join(outDir, "results.json"))
	if updateExpect {
		exp := expectation{Seconds: seconds, Exact: map[string]map[string]string{}}
		for name, rr := range env.Results {
			if len(rr.Exact) > 0 {
				exp.Exact[name] = rr.Exact
			}
		}
		if err := writeJSON(expectFile, exp); err != nil {
			return err
		}
	} else if seed == 1 {
		warnExpect(os.Stdout, env)
	}
	if len(failed) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

// warnExpect compares the exactly repeatable values with expect.json and
// prints a warning naming both for each that differs.
func warnExpect(w io.Writer, env envelope) {
	var exp expectation
	if err := readJSON(expectFile, &exp); err != nil {
		fmt.Fprintf(w, "warning: no expectations checked: %v\n", err)
		return
	}
	if exp.Seconds != env.Seconds {
		fmt.Fprintf(w, "expect.json is for -seconds %v; not compared at -seconds %v\n", exp.Seconds, env.Seconds)
		return
	}
	same := true
	for _, wl := range workloads {
		for key, want := range exp.Exact[wl.Name] {
			if got := env.Results[wl.Name].Exact[key]; got != want {
				same = false
				fmt.Fprintf(w, "warning: %s %s is %s, expect.json has %s\n", wl.Name, key, got, want)
			}
		}
	}
	if same {
		fmt.Fprintln(w, "exactly repeatable values match expect.json")
	}
}

func bound(d metricDef, workload string) string {
	b := d.Bound[workload]
	if d.Abs {
		return fmt.Sprintf("%g abs", b)
	}
	return fmt.Sprintf("%.3g%%", b*100)
}

func printEnvelope(w io.Writer, env envelope) {
	fmt.Fprintf(w, "\ncommit %s  %s  GOMAXPROCS %d  nproc %d  %s\nkernel %+v\nseed %d  seconds %g  scale %.4f of ISSUE 12's sizes  started %s\n",
		env.Commit, env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPUModel, env.Kernel, env.Seed, env.Seconds, env.Scale, env.Start.Format(time.RFC3339))
	for _, wl := range env.Workloads {
		rr := env.Results[wl.Name]
		fmt.Fprintf(w, "\n%s — %s\n", wl.Name, wl.Why)
		fmt.Fprintf(w, "  attempted %d, failed %d\n", rr.Attempted, rr.Failed)
		for _, d := range env.EndToEnd {
			if _, ok := d.Bound[wl.Name]; !ok {
				continue
			}
			v := rr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-24s %16.6f %-6s %s is better, bound %s, n=%d\n", d.Name, v.Value, d.Unit, d.Better, bound(d, wl.Name), v.Samples)
		}
		for _, d := range env.PerLayer {
			v := rr.PerLayer[d.Name]
			fmt.Fprintf(w, "    %-34s %16.6f %-8s from %s\n", d.Name, v.Value, d.Unit, d.Owner)
		}
	}
	fmt.Fprintln(w, "\nlayer -> end-to-end metric it should move:")
	for _, lm := range layerMoves {
		fmt.Fprintf(w, "  %-13s %s\n", lm.Layer, lm.Moves)
	}
}

// worsening is how much worse b is than a for metric d, as a share of a
// (or as an absolute amount); negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	diff := b - a
	if d.Better == higher {
		diff = -diff
	}
	if d.Abs {
		return diff
	}
	if a == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, diff)))
	}
	return diff / math.Abs(a)
}

// compareFiles prints every end-to-end metric of every workload from both
// result files with its bound, and returns an error when any is worse in B
// than in A by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b envelope
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	regressions := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, d := range endToEnd {
			if _, ok := d.Bound[wl.Name]; !ok {
				continue
			}
			va, okA := a.Results[wl.Name].EndToEnd[d.Name]
			vb, okB := b.Results[wl.Name].EndToEnd[d.Name]
			verdict := "ok"
			switch worse := worsening(d, va.Value, vb.Value); {
			case !okA || !okB:
				verdict = "MISSING"
				regressions++
			case worse > d.Bound[wl.Name]+1e-12:
				verdict = fmt.Sprintf("REGRESSION (%+.4g)", worse)
				regressions++
			}
			fmt.Fprintf(w, "  %-24s %16.6f -> %16.6f %-6s bound %-9s %s\n", d.Name, va.Value, vb.Value, d.Unit, bound(d, wl.Name), verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressions)
	}
	return nil
}

// benchmarkJSON is BENCHMARK.json exactly as the driver's contract has it.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDef  `json:"workloads"`
	EndToEnd   []contractJSON `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type contractJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkTables(runSeconds int) benchmarkJSON {
	b := benchmarkJSON{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: runSeconds, Workloads: workloads,
	}
	for _, c := range contract {
		b.EndToEnd = append(b.EndToEnd, contractJSON{c.Name, c.Unit, c.Better, c.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return b
}

func printBenchmarkJSON(w io.Writer, runSeconds int) error {
	out, err := json.MarshalIndent(benchmarkTables(runSeconds), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
