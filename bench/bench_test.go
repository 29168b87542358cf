package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func smokeOpts(t *testing.T) opts {
	return opts{seed: 1, scale: smokeSeconds / fullSeconds, dir: t.TempDir()}
}

func wantMetric(t *testing.T, where string, m metricSet, name, unit string) {
	t.Helper()
	v, ok := m[name]
	switch {
	case !ok:
		t.Errorf("%s: no %s", where, name)
	case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
		t.Errorf("%s: %s is %v", where, name, v.Value)
	case v.Unit != unit:
		t.Errorf("%s: %s has unit %q, want %q", where, name, v.Unit, unit)
	}
}

// TestSmoke runs every workload end to end and one traced run at about a
// fiftieth of the committed size, and checks that every metric the tables
// name is there, finite and carries its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runBody(w.Name, smokeOpts(t))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, d := range endToEnd {
			if _, applies := d.Bound[w.Name]; applies {
				wantMetric(t, w.Name, res.Metrics, d.Name, d.Unit)
			}
		}
		projected := project(res.Metrics)
		for _, c := range contract {
			wantMetric(t, w.Name+" (BENCHMARK.json name)", projected, c.Name, c.Unit)
			if projected[c.Name].Value == 0 {
				t.Errorf("%s: %s is 0", w.Name, c.Name)
			}
		}
	}

	res, err := tracedRun("rpc", smokeOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: %d of %d failed: %v", res.Failed, res.Attempted, res.Problems)
	}
	for _, d := range perLayer {
		wantMetric(t, "traced rpc", res.Metrics, d.Name, d.Unit)
	}

	f, err := os.Open(filepath.Join(outDir, "trace-rpc.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 0; sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %d: %v", n, err)
		}
		if s.ID != n || s.Parent >= n || s.EndNs < s.StartNs || s.SelfNs < 0 || s.SelfNs > s.EndNs-s.StartNs {
			t.Fatalf("trace line %d is inconsistent: %+v", n, s)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"rpcfed.Server.Run", "search.New", "search.StepRound", "search.SaveCheckpoint", "search.Derive",
		"search.RetrainCentralized", "search.RetrainFederated", "serve.Infer", "probe", "nas.sub_fwd_us"} {
		if !seen[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestOpenLoopChargesStalls checks the generator against stub targets that
// stall 100 ms: the requests that fell due during the stall must carry it
// in their latency (no coordinated omission), none may be skipped, and a
// stall of the generator itself must show in genLateMsMax.
func TestOpenLoopChargesStalls(t *testing.T) {
	const (
		stallAt = 200
		stall   = 100 * time.Millisecond
	)
	p := phase{name: "stub", rate: 1000, duration: 500 * time.Millisecond}

	// A serial server that stalls once: every request that falls due during
	// the stall queues behind it and is timed from its own due instant.
	var mu sync.Mutex
	var stalledAt time.Time
	serial := runPhase(p, spawn, func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if i == stallAt {
			stalledAt = time.Now()
			time.Sleep(stall)
		}
		return true
	})
	checkCharged(t, "stalled server", serial, stalledAt, stall)
	if serial.genLateMsMax > 50 {
		t.Errorf("stalled server: generator itself ran %.1f ms late", serial.genLateMsMax)
	}

	// A stall in the generator's own path: one request is started
	// synchronously and blocks the generator for 100 ms.
	var launched int
	gen := runPhase(p, func(f func()) {
		if launched++; launched-1 == stallAt {
			f()
			return
		}
		spawn(f)
	}, func(i int) bool {
		if i == stallAt {
			stalledAt = time.Now()
			time.Sleep(stall)
		}
		return true
	})
	checkCharged(t, "stalled generator", gen, stalledAt, stall)
	if gen.genLateMsMax < 90 {
		t.Errorf("stalled generator: genLateMsMax %.1f ms does not report the 100 ms stall", gen.genLateMsMax)
	}
}

// checkCharged requires every request to have been sent and answered, and
// each request that fell due while the stall lasted to have waited at
// least until it ended (less 5 ms of scheduling slack).
func checkCharged(t *testing.T, what string, st phaseStats, stalledAt time.Time, stall time.Duration) {
	t.Helper()
	n := int(st.rate * st.duration.Seconds())
	if st.sent != n || st.succeeded != n || st.failed != 0 || st.refused != 0 {
		t.Fatalf("%s: sent %d succeeded %d failed %d refused %d, want all %d sent and answered", what, st.sent, st.succeeded, st.failed, st.refused, n)
	}
	begin, end := ms(stalledAt.Sub(st.started).Seconds()), ms(stalledAt.Add(stall).Sub(st.started).Seconds())
	charged := 0
	for i, lat := range st.latMs {
		due := float64(i) * 1e3 / st.rate
		switch {
		case due > begin+5 && due < end-10:
			charged++
			if want := end - due - 5; lat < want {
				t.Errorf("%s: request %d, due %.0f ms into the stall, has latency %.1f ms, want >= %.1f", what, i, due-begin, lat, want)
			}
		case due < begin-50 && lat > 50:
			t.Errorf("%s: request %d, due before the stall, has latency %.1f ms", what, i, lat)
		}
	}
	if charged < 50 {
		t.Errorf("%s: only %d requests fell due during the stall", what, charged)
	}
}

func syntheticEnvelope(scale float64) envelope {
	env := envelope{Results: map[string]runResult{}}
	for _, w := range workloads {
		m := metricSet{}
		for _, d := range endToEnd {
			if _, ok := d.Bound[w.Name]; !ok {
				continue
			}
			v := 100.0
			switch {
			case d.Name == "failed_share":
				v = 0
			case d.Abs:
				v = 0.9
			}
			m[d.Name] = value{Value: v, Unit: d.Unit}
		}
		// Slow the rounds of one workload down by the given factor.
		if w.Name == "pipeline" {
			m["rounds_per_s"] = value{Value: 100 / scale, Unit: "1/s"}
			m["round_ms_p50"] = value{Value: 100 * scale, Unit: "ms"}
		}
		env.Results[w.Name] = runResult{EndToEnd: m}
	}
	return env
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envelope) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, env); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", syntheticEnvelope(1))
	slow10 := write("slow10.json", syntheticEnvelope(1.10))
	slow1 := write("slow1.json", syntheticEnvelope(1.01))

	var out bytes.Buffer
	if err := compareFiles(&out, base, base); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow1); err != nil {
		t.Errorf("a 1%% slowdown is inside every bound, got %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow10); err == nil {
		t.Errorf("a 10%% slowdown of pipeline rounds was not caught:\n%s", out.String())
	} else if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("the report does not name the regression:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, slow10, base); err != nil {
		t.Errorf("an improvement was reported as a regression: %v\n%s", err, out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // runs past the root
		{Name: "a1", StartNs: 10, EndNs: 20, Parent: 1},
	}
	selfTimes(spans)
	for i, want := range []int64{100 - 50 - 10, 20, 30, 30, 10} {
		if spans[i].SelfNs != want {
			t.Errorf("%s: self %d ns, want %d", spans[i].Name, spans[i].SelfNs, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables in this
// package and inside the limits the driver's contract sets.
func TestBenchmarkJSON(t *testing.T) {
	var got benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkTables(got.RunSeconds); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run . -tables -seconds %d`", got.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	use := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		used[n] = true
	}
	for _, w := range got.Workloads {
		use(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		use(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range got.PerLayer {
		use(m.Name, m.Unit)
	}
	if !hasSetup || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 || len(got.Workloads) < 2 || len(got.Workloads) > 8 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer, %d workloads", hasSetup, len(got.EndToEnd), len(got.PerLayer), len(got.Workloads))
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
}
