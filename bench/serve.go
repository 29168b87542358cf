package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/search"
	"fedrlnas/internal/serve"
	"fedrlnas/internal/tensor"
)

const (
	serveModelSeed = 7
	serveMaxBatch  = 16
	serveMaxWait   = 2 * time.Millisecond
	// inputPool is how many distinct request inputs a run cycles through.
	inputPool = 256
	// verifyEvery: the logits of every 50th response are kept and compared
	// bit for bit with a second, identically seeded model.
	verifyEvery = 50
	// latencyLimitMs is the p99 limit a rate must meet to count towards
	// infer_max_rate_rps.
	latencyLimitMs = 50
)

// serveNet and serveGenotype are the model cmd/benchserve serves: a fixed
// genotype with seeded weights, so logits are a pure function of the input.
func serveNet() nas.Config {
	return nas.Config{InChannels: 3, NumClasses: 10, C: 8, Layers: 3, Nodes: 2, Candidates: nas.AllOps}
}

func serveGenotype() nas.Genotype {
	return nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpIdentity, nas.OpSepConv5, nas.OpDilConv3, nas.OpMaxPool3},
		Reduce: []nas.OpKind{nas.OpMaxPool3, nas.OpSepConv3, nas.OpIdentity, nas.OpAvgPool3, nas.OpSepConv5},
		Nodes:  2,
	}
}

// trainerConfig is the resident search job that trains beside serving: the
// small job cmd/benchserve runs, on one worker. It is the same job at every
// seed — the seed generates the requests — because which architectures a
// job samples moves its round time by a third, and that would drown the
// effect serving has on it.
func trainerConfig() search.Config {
	cfg := search.DefaultConfig()
	cfg.Dataset = data.Spec{
		Name: "bench", NumClasses: 5, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 40, TestPerClass: 10, Noise: 1.0, Confusion: 0.3, Seed: 91,
	}
	cfg.Net = nas.Config{InChannels: 2, NumClasses: 5, C: 4, Layers: 2, Nodes: 1, Candidates: nas.AllOps}
	cfg.K = 4
	cfg.BatchSize = 8
	cfg.WarmupSteps = 1
	cfg.SearchSteps = 1 << 30 // unbounded; Drain suspends it
	cfg.Workers = 1
	return cfg
}

// requestInputs generates the run's request pool from the seed.
func requestInputs(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	cfg := serveNet()
	xs := make([]*tensor.Tensor, inputPool)
	for i := range xs {
		xs[i] = tensor.New(1, cfg.InChannels, 8, 8)
		d := xs[i].Data()
		for j := range d {
			d[j] = rng.NormFloat64()
		}
	}
	return xs
}

// serving is one booted server: an optional background job plus the model.
type serving struct {
	srv    *serve.Server
	job    *serve.Job // nil when idle
	inf    *serve.Inference
	id     string
	setupS float64
}

// bootServing is the serve workload's set-up: server, job boot (first
// round done), model build and 64 warm-up requests.
func bootServing(withJob bool, inputs []*tensor.Tensor) (*serving, error) {
	t0 := time.Now()
	sv := &serving{srv: serve.NewServer(serve.Options{
		DefaultBatch: serve.BatchConfig{MaxBatch: serveMaxBatch, MaxWait: serveMaxWait},
	})}
	if withJob {
		job, err := sv.srv.CreateJob(trainerConfig(), "")
		if err != nil {
			return nil, err
		}
		deadline := time.Now().Add(30 * time.Second)
		for job.Status().Round < 1 {
			if job.State().Terminal() || time.Now().After(deadline) {
				return nil, fmt.Errorf("serve: background job stuck: %+v", job.Status())
			}
			time.Sleep(time.Millisecond)
		}
		sv.job = job
	}
	var err error
	sv.id, sv.inf, err = sv.srv.ServeModel(serveNet(), serveGenotype(), serveModelSeed,
		serve.BatchConfig{MaxBatch: serveMaxBatch, MaxWait: serveMaxWait})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sv.inf.Infer(inputs[i%len(inputs)])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: warm-up request: %w", err)
		}
	}
	sv.setupS = time.Since(t0).Seconds()
	return sv, nil
}

func (sv *serving) jobRounds() int {
	if sv.job == nil {
		return 0
	}
	return sv.job.Status().Round
}

// kept is one response held back for verification.
type kept struct {
	input  int
	logits []float64
}

// schedule is the outcome of one pass over the rate ladder.
type schedule struct {
	phases    []phaseStats
	jobRounds int
	windowS   float64
	wrong     int
	verified  int
	// rssBeforeOverloadMB is the process's memory high-water mark when the
	// last sustainable-rate phase ended.
	rssBeforeOverloadMB float64
}

// phaseLength scales a phase's length, never below a quarter second so
// that even a smoke-sized phase holds enough requests for a median.
func (o opts) phaseLength(seconds float64) time.Duration {
	return time.Duration(max(seconds*o.scale, 0.25) * float64(time.Second))
}

func servePhases(o opts) []phase {
	d := o.phaseLength
	return []phase{
		{name: "rate1500", rate: 1500, duration: d(8)},
		{name: "rate3000", rate: 3000, duration: d(8)},
		{name: "rate6000", rate: 6000, duration: d(8)},
		{name: "overload", rate: 9000, duration: d(4), overload: true},
	}
}

// runSchedule offers every phase in turn to sv and verifies sampled
// responses against ref afterwards. Phases are separated by a full drain of
// in-flight requests, so each starts from an empty queue.
func runSchedule(kind, label string, o opts, parent int, sv *serving, phases []phase, inputs []*tensor.Tensor, ref *nas.FixedModel) schedule {
	var out schedule
	for _, p := range phases {
		if p.overload {
			// The backlog an overload builds is the generator's own
			// goroutines; keep it out of the server's memory figure.
			out.rssBeforeOverloadMB = peakRSSMB()
		}
		var mu sync.Mutex
		var keep []kept
		ps := o.tr.open(kind, label+p.name, parent)
		r0 := sv.jobRounds()
		st := runPhase(p, spawn, func(i int) bool {
			in := i % len(inputs)
			t0 := time.Now()
			logits, err := sv.inf.Infer(inputs[in])
			o.tr.add(kind, "serve.Infer", ps, t0, time.Since(t0))
			if err != nil {
				return false
			}
			if i%verifyEvery == 0 {
				mu.Lock()
				keep = append(keep, kept{in, logits})
				mu.Unlock()
			}
			return true
		})
		out.jobRounds += sv.jobRounds() - r0
		out.windowS += st.wallS
		o.tr.finish(ps)
		for _, k := range keep {
			out.verified++
			if !sameBits(k.logits, ref.Forward(inputs[k.input]).Data()) {
				out.wrong++
			}
		}
		out.phases = append(out.phases, st)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runServe drives the resident-serving workload: the open-loop rate ladder
// beside the training job, then the remaining set-ups.
func runServe(o opts) (*result, error) {
	const kind = "serve"
	res := newResult(kind)
	m := res.Metrics
	inputs := requestInputs(o.seed)
	ref, err := nas.NewFixedModel(rand.New(rand.NewSource(serveModelSeed)), serveNet(), serveGenotype())
	if err != nil {
		return nil, err
	}
	ref.SetTraining(false)

	root := o.tr.open(kind, kind, -1)
	t0 := time.Now()
	sv, err := bootServing(true, inputs)
	if err != nil {
		return nil, err
	}
	o.tr.add(kind, "serve.boot", root, t0, time.Since(t0))
	setups := []float64{sv.setupS}

	met := sv.srv.Metrics()
	mem0, flops0, nanos0 := readMem(), tensor.GemmFLOPs(), tensor.GemmKernelNanos()
	batches0, fwdSum0, fwdN0 := met.Batches.Value(), met.BatchSeconds.Sum(), met.BatchSeconds.N()
	start := time.Now()
	sched := runSchedule(kind, "serve.", o, root, sv, servePhases(o), inputs, ref)
	wall := time.Since(start).Seconds()
	mem := memSince(mem0)
	flops, nanos := tensor.GemmFLOPs()-flops0, tensor.GemmKernelNanos()-nanos0
	batches := float64(met.Batches.Value() - batches0)
	fwdMs := ms(met.BatchSeconds.Sum()-fwdSum0) / float64(max(met.BatchSeconds.N()-fwdN0, 1))
	if err := sv.srv.Drain(); err != nil {
		return nil, err
	}

	requests := scheduleMetrics(m, "serve.", sched, res)
	at3000 := sortedCopy(sched.phases[1].latMs)
	m.putN("infer_ms_p50", percentile(at3000, 0.5), "ms", len(at3000))
	m.putN("infer_ms_p95", percentile(at3000, 0.95), "ms", len(at3000))
	over := sched.phases[len(sched.phases)-1]
	m.putN("infer_capacity_rps", float64(over.completedInWindow)/over.duration.Seconds(), "1/s", over.completedInWindow)
	m.put("infer_max_rate_rps", maxGoodRate(sched.phases[:3]), "1/s")
	m.put("rounds_per_s", float64(sched.jobRounds)/sched.windowS, "1/s")
	m.put("timed_wall_s", wall, "s")
	m.put("allocs_per_request", float64(mem.mallocs)/float64(requests), "count")
	cfg := serveNet()
	m.put("payload_bytes_per_request", float64(8*(cfg.InChannels*8*8+cfg.NumClasses)), "B")

	m.put("serve.batch_fill_mean", float64(requests)/batches, "count")
	m.put("serve.batches_per_s", batches/sched.windowS, "1/s")
	m.put("serve.batch_forward_ms_mean", fwdMs, "ms")
	m.put("serve.queue_wait_ms_p50", m["infer_ms_p50"].Value-fwdMs, "ms")
	m.put("tensor.gemm_gflops", float64(flops)/float64(nanos), "GFLOP/s")
	m.put("tensor.gemm_time_share", float64(nanos)/(wall*1e9*2), "share")
	m.put("go.alloc_bytes_per_round", float64(mem.bytes)/float64(max(sched.jobRounds, 1)), "B")
	m.put("go.gc_cycles", float64(mem.gcCycles), "count")
	m.put("go.gc_pause_ms_total", mem.gcPauseMs, "ms")
	m.put("peak_rss_mb", sched.rssBeforeOverloadMB, "MB")
	if o.layers {
		if err := serveIdle(o, root, inputs, ref, res); err != nil {
			return nil, err
		}
	}
	o.tr.finish(root)
	// The remaining set-ups, after the memory high-water mark is read.
	for len(setups) < setupSamples {
		again, err := bootServing(true, inputs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, again.setupS)
		if err := again.srv.Drain(); err != nil {
			return nil, err
		}
	}
	m.putN("setup_s", median(setups), "s", len(setups))
	m.put("failed_share", float64(res.Failed)/float64(res.Attempted), "share")
	return res, nil
}

// serveIdle repeats the schedule on a server with no background job, and
// measures the HTTP front on it: what serving costs when nothing trains.
func serveIdle(o opts, root int, inputs []*tensor.Tensor, ref *nas.FixedModel, res *result) error {
	const kind = "serve"
	m := res.Metrics
	sv, err := bootServing(false, inputs)
	if err != nil {
		return err
	}
	sched := runSchedule(kind, "serve.idle.", o, root, sv, servePhases(o), inputs, ref)
	idle := metricSet{}
	scheduleMetrics(idle, "serve.idle.", sched, res)
	m.put("serve.idle.p50_ms", idle["serve.idle.rate3000.p50_ms"].Value, "ms")
	m.put("serve.idle.p99_ms", idle["serve.idle.rate3000.p99_ms"].Value, "ms")
	over := sched.phases[len(sched.phases)-1]
	m.put("serve.idle.capacity_rps", float64(over.completedInWindow)/over.duration.Seconds(), "1/s")
	m.put("serve.job_interference_ms", m["infer_ms_p50"].Value-m["serve.idle.p50_ms"].Value, "ms")
	overhead, err := httpOverheadUs(o, root, sv, inputs)
	if err != nil {
		return err
	}
	m.put("serve.http_overhead_us", overhead, "us")
	return sv.srv.Drain()
}

// scheduleMetrics reports the per-phase numbers under prefix, counts every
// request into res and returns how many were sent.
func scheduleMetrics(m metricSet, prefix string, sched schedule, res *result) int {
	requests := 0
	var late float64
	var inFlight int64
	for _, st := range sched.phases {
		lat := sortedCopy(st.latMs)
		m.putN(prefix+st.name+".p50_ms", percentile(lat, 0.5), "ms", len(lat))
		if !st.overload {
			m.putN(prefix+st.name+".p99_ms", percentile(lat, 0.99), "ms", len(lat))
		}
		res.Attempted += st.sent + st.refused
		res.Failed += st.failed + st.refused
		requests += st.sent
		late = math.Max(late, st.genLateMsMax)
		inFlight = max(inFlight, st.inFlightMax)
		fmt.Printf("# %s%s: offered %.0f/s for %.2fs: sent %d = succeeded %d + failed %d, refused %d, backlog mid %d end %d, generator late ≤ %.2f ms\n",
			prefix, st.name, st.rate, st.duration.Seconds(), st.sent, st.succeeded, st.failed, st.refused, st.backlogMid, st.backlogEnd, st.genLateMsMax)
	}
	res.Attempted += sched.verified
	res.Failed += sched.wrong
	if sched.wrong > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%s%d of %d verified responses differ from the reference model", prefix, sched.wrong, sched.verified))
	}
	m.put(prefix+"gen_late_ms_max", late, "ms")
	m.put(prefix+"inflight_max", float64(inFlight), "count")
	return requests
}

// maxGoodRate is the highest offered rate whose p99 met the limit with no
// failure and whose backlog at the end of the phase had not grown past the
// backlog at its middle by more than one batch.
func maxGoodRate(phases []phaseStats) float64 {
	best := 0.0
	for _, st := range phases {
		p99 := percentile(sortedCopy(st.latMs), 0.99)
		if st.failed+st.refused == 0 && p99 <= latencyLimitMs && st.backlogEnd <= st.backlogMid+serveMaxBatch {
			best = math.Max(best, st.rate)
		}
	}
	return best
}

// httpOverheadUs is the cost of the HTTP JSON front: p50 of
// /v1/models/{id}/infer behind httptest minus p50 of a direct Infer, both
// offered 200 req/s on an idle server.
func httpOverheadUs(o opts, parent int, sv *serving, inputs []*tensor.Tensor) (float64, error) {
	const kind = "serve"
	ts := httptest.NewServer(sv.srv.APIHandler())
	defer ts.Close()
	bodies := make([][]byte, len(inputs))
	for i, x := range inputs {
		b, err := json.Marshal(serve.InferRequest{Shape: x.Shape()[1:], Input: x.Data()})
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	url := ts.URL + "/v1/models/" + sv.id + "/infer"
	p := phase{name: "http200", rate: 200, duration: o.phaseLength(4)}
	hs := o.tr.open(kind, "serve.http", parent)
	viaHTTP := runPhase(p, spawn, func(i int) bool {
		t0 := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return false
		}
		var out serve.InferResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		o.tr.add(kind, "serve.http.infer", hs, t0, time.Since(t0))
		return err == nil && resp.StatusCode == http.StatusOK && len(out.Logits) > 0
	})
	o.tr.finish(hs)
	ds := o.tr.open(kind, "serve.direct", parent)
	direct := runPhase(p, spawn, func(i int) bool {
		t0 := time.Now()
		_, err := sv.inf.Infer(inputs[i%len(inputs)])
		o.tr.add(kind, "serve.Infer", ds, t0, time.Since(t0))
		return err == nil
	})
	o.tr.finish(ds)
	if viaHTTP.failed+direct.failed > 0 {
		return 0, fmt.Errorf("serve: %d HTTP and %d direct requests failed in the overhead probe", viaHTTP.failed, direct.failed)
	}
	return (median(viaHTTP.latMs) - median(direct.latMs)) * 1e3, nil
}
