package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
)

// opts is what a workload body is told. Everything it generates derives
// from seed; scale 1 is the size ISSUE 12 names (about 30 s timed).
type opts struct {
	seed  int64
	scale float64
	tr    *tracer // nil: tracing off
	// layers asks a body for the extra runs only per-layer metrics need
	// (softsync at one worker, serve without a job, the HTTP front).
	layers bool
	dir    string // scratch directory for checkpoints
}

// n scales a round/step/request count, never below lo.
func (o opts) n(base, lo int) int {
	return max(int(math.Round(float64(base)*o.scale)), lo)
}

const softsyncScenario = "70%phone-urban+30%iot-rural"

// setupSamples is how many times a run builds its workload's system; the
// median is setup_s.
const setupSamples = 7

// accuracyFloor is the final accuracy below which a run of at least half
// the committed size counts as failed: far above the 0.10 of chance, below
// the slowest-learning seed seen. final_acc differs between seeds by more
// than any bound BENCHMARK.json may set, so this check is what tells the
// driver that training still learns.
var accuracyFloor = map[string]float64{"pipeline": 0.6, "softsync": 0.25, "rpc": 0.5}

func (r *result) checkAccuracy(o opts, acc float64) {
	r.check(finite(acc), "%s: non-finite final accuracy", r.Workload)
	if o.scale >= 0.5*committedSeconds/fullSeconds {
		r.check(acc >= accuracyFloor[r.Workload], "%s: final accuracy %.3f is below the floor %.2f", r.Workload, acc, accuracyFloor[r.Workload])
	}
}

// prefixRounds is the length of the determinism prefix every training
// workload runs twice before its timed region: 20 rounds, fewer only at
// smoke scales.
func (o opts) prefixRounds() int { return min(o.n(30, 4), 20) }

// searchConfig builds the engine configuration of the two in-process
// workloads. pipeline is search.DefaultConfig() itself (K=10, IID, hard
// sync, adaptive transmission, fp64); softsync enrolls 200 clients, samples
// 10 a round and turns on everything hard sync bypasses.
func searchConfig(kind string, o opts) (search.Config, error) {
	cfg := search.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Dataset.Seed = 1000 + o.seed
	switch kind {
	case "pipeline":
		cfg.Workers = 1
		cfg.WarmupSteps, cfg.SearchSteps = o.n(150, 2), o.n(450, 2)
	case "softsync":
		spec, err := scenario.Parse(softsyncScenario)
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = spec
		cfg.K = 200
		cfg.CohortSize = 10
		// 3200 samples over 200 shards: every shard holds one full batch.
		cfg.Dataset.TrainPerClass = 320
		cfg.Staleness = staleness.Severe()
		cfg.Strategy = staleness.DC
		cfg.StalenessThreshold = 2
		cfg.Workers = 2
		cfg.WarmupSteps, cfg.SearchSteps = o.n(600, 2), o.n(1800, 2)
	default:
		return cfg, fmt.Errorf("no search config for workload %q", kind)
	}
	return cfg, nil
}

// thetaHash fingerprints parameters to the bit (FNV-1a over each float64's
// little-endian bytes, as cmd/benchrpc does) and reports whether all are
// finite.
func thetaHash(params []*nn.Param) (string, bool) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h, finite := uint64(offset64), true
	for _, p := range params {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			bits := math.Float64bits(v)
			for i := 0; i < 64; i += 8 {
				h ^= uint64(byte(bits >> i))
				h *= prime64
			}
		}
	}
	return fmt.Sprintf("%016x", h), finite
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// prefix is one determinism run: half warm-up, half search rounds on a
// fresh engine. It returns the θ hash, the tail accuracy and how long the
// engine took to build (each prefix is also one more set-up sample).
type prefix struct {
	hash    string
	acc     float64
	setupS  float64
	allGood bool
}

func searchPrefix(cfg search.Config, workers, rounds int) (prefix, error) {
	cfg.Workers = workers
	cfg.WarmupSteps, cfg.SearchSteps = rounds/2, rounds-rounds/2
	t0 := time.Now()
	s, err := search.New(cfg)
	if err != nil {
		return prefix{}, err
	}
	p := prefix{setupS: time.Since(t0).Seconds(), allGood: true}
	for s.Round() < s.TotalRounds() {
		info, err := s.StepRound()
		if err != nil {
			return prefix{}, err
		}
		p.allGood = p.allGood && finite(info.Accuracy)
	}
	var ok bool
	p.hash, ok = thetaHash(s.Supernet().Params())
	p.allGood = p.allGood && ok
	p.acc = s.SearchCurve.TailMean(10)
	return p, nil
}

// runSearch drives the pipeline and softsync workloads: the timed P1+P2
// rounds on a fresh engine, for pipeline the rest of Alg. 1's path (derive,
// retrain twice, evaluate), and then — once the clock and the memory
// high-water mark are read, so their garbage is in neither — the
// determinism prefixes and the remaining set-ups.
func runSearch(kind string, o opts) (*result, error) {
	res := newResult(kind)
	m := res.Metrics
	cfg, err := searchConfig(kind, o)
	if err != nil {
		return nil, err
	}

	root := o.tr.open(kind, kind, -1)
	t0 := time.Now()
	s, err := search.New(cfg)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	o.tr.add(kind, "search.New", root, t0, d)
	setups := []float64{d.Seconds()}
	m.put("search.new_ms", ms(d.Seconds()), "ms")

	ckpt := filepath.Join(o.dir, kind+".ckpt")
	ckptEvery := 0
	if kind == "pipeline" {
		ckptEvery = o.n(100, 1)
	}

	// Timed region: P1 then P2, one StepRound call at a time.
	total := s.TotalRounds()
	roundMs := make([]float64, 0, total)
	var saveMs []float64
	mem0, flops0, nanos0 := readMem(), tensor.GemmFLOPs(), tensor.GemmKernelNanos()
	start := time.Now()
	phaseStart, phaseSpan := start, o.tr.open(kind, "search.phase.warmup", root)
	var warmupS float64
	for s.Round() < total {
		if s.Round() == cfg.WarmupSteps {
			o.tr.finish(phaseSpan)
			warmupS = time.Since(phaseStart).Seconds()
			phaseStart, phaseSpan = time.Now(), o.tr.open(kind, "search.phase.search", root)
		}
		r0 := time.Now()
		info, err := s.StepRound()
		rd := time.Since(r0)
		if err != nil {
			return nil, err
		}
		o.tr.add(kind, "search.StepRound", phaseSpan, r0, rd)
		roundMs = append(roundMs, ms(rd.Seconds()))
		res.Attempted++
		if !finite(info.Accuracy) {
			res.Failed++
		}
		if ckptEvery > 0 && (info.Round+1)%ckptEvery == 0 {
			c0 := time.Now()
			if err := s.SaveCheckpoint(ckpt); err != nil {
				return nil, err
			}
			cd := time.Since(c0)
			o.tr.add(kind, "search.SaveCheckpoint", phaseSpan, c0, cd)
			saveMs = append(saveMs, ms(cd.Seconds()))
		}
	}
	o.tr.finish(phaseSpan)
	searchS := time.Since(phaseStart).Seconds()
	roundsWall := time.Since(start).Seconds()
	mem := memSince(mem0)
	flops, nanos := tensor.GemmFLOPs()-flops0, tensor.GemmKernelNanos()-nanos0

	rounds := float64(total)
	sorted := sortedCopy(roundMs)
	m.put("rounds_per_s", rounds/roundsWall, "1/s")
	m.putN("round_ms_p50", percentile(sorted, 0.5), "ms", total)
	m.putN("round_ms_p95", percentile(sorted, 0.95), "ms", total)
	m.putN("round_ms_p99", percentile(sorted, 0.99), "ms", total)
	m.put("virtual_s_per_round", s.TotalSeconds()/rounds, "s")
	m.put("allocs_per_round", float64(mem.mallocs)/rounds, "count")
	var shipped int64
	for _, b := range s.SubModelBytes {
		shipped += b
	}
	m.put("submodel_bytes_per_round", float64(shipped)/rounds, "B")

	m.putN("search.warmup_round_ms_p50", median(roundMs[:cfg.WarmupSteps]), "ms", cfg.WarmupSteps)
	m.putN("search.search_round_ms_p50", median(roundMs[cfg.WarmupSteps:]), "ms", cfg.SearchSteps)
	m.put("search.phase.warmup_s", warmupS, "s")
	m.put("search.phase.search_s", searchS, "s")
	m.put("tensor.gemm_gflops", float64(flops)/float64(nanos), "GFLOP/s")
	m.put("tensor.gemm_time_share", float64(nanos)/(roundsWall*1e9*float64(cfg.Workers)), "share")
	m.put("go.alloc_bytes_per_round", float64(mem.bytes)/rounds, "B")
	m.put("go.gc_cycles", float64(mem.gcCycles), "count")
	m.put("go.gc_pause_ms_total", mem.gcPauseMs, "ms")
	replies := float64(s.Stats.Fresh + s.Stats.Late + s.Stats.Dropped)
	m.put("staleness.late_share", float64(s.Stats.Late)/replies, "share")
	m.put("staleness.dropped_share", float64(s.Stats.Dropped)/replies, "share")
	m.put("staleness.late_per_round", float64(s.Stats.Late)/rounds, "count")
	// Offline and dropped cohort members never run their local step.
	m.put("search.computed_per_round", float64(s.Stats.Fresh+s.Stats.Late)/rounds, "count")
	m.put("fed.materialized", float64(s.Population().Materialized()), "count")

	hash, ok := thetaHash(s.Supernet().Params())
	res.check(ok, "%s: non-finite θ after %d rounds", kind, total)
	res.Exact["theta_hash"] = hash
	res.Exact["virtual_s_per_round"] = exact(s.TotalSeconds() / rounds)

	if kind == "softsync" {
		m.put("timed_wall_s", roundsWall, "s")
		acc := s.SearchCurve.TailMean(10)
		res.checkAccuracy(o, acc)
		m.put("final_acc", acc, "share")
		res.Exact["final_acc"] = exact(acc)
		m.put("peak_rss_mb", peakRSSMB(), "MB")
		if o.layers {
			one, err := oneWorkerRate(cfg, o, root)
			if err != nil {
				return nil, err
			}
			m.put("parallel.scaling_w2", rounds/roundsWall/one, "ratio")
		}
	} else if err := finishPipeline(s, cfg, o, root, start, res, ckpt, saveMs); err != nil {
		return nil, err
	}
	o.tr.finish(root)
	checked, err := checkSearchPrefix(kind, cfg, o, res)
	if err != nil {
		return nil, err
	}
	setups = append(setups, checked...)
	for len(setups) < setupSamples {
		e0 := time.Now()
		if _, err := search.New(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(e0).Seconds())
	}
	m.putN("setup_s", median(setups), "s", len(setups))
	m.put("failed_share", float64(res.Failed)/float64(res.Attempted), "share")
	return res, nil
}

// checkSearchPrefix is the output check of the two in-process workloads: a
// short prefix of the schedule runs twice on fresh engines and must repeat
// to the bit; softsync must also give the same bits on one worker. It
// returns the engines' build times: each prefix is a set-up too.
func checkSearchPrefix(kind string, cfg search.Config, o opts, res *result) ([]float64, error) {
	rounds := o.prefixRounds()
	a, err := searchPrefix(cfg, cfg.Workers, rounds)
	if err != nil {
		return nil, err
	}
	b, err := searchPrefix(cfg, cfg.Workers, rounds)
	if err != nil {
		return nil, err
	}
	setups := []float64{a.setupS, b.setupS}
	res.check(a.hash == b.hash && a.acc == b.acc, "%s: %d-round prefix not repeatable: θ %s/%s acc %v/%v", kind, rounds, a.hash, b.hash, a.acc, b.acc)
	res.check(a.allGood && b.allGood, "%s: non-finite accuracy or θ in the prefix", kind)
	if kind == "softsync" {
		c, err := searchPrefix(cfg, 1, rounds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setupS)
		res.check(c.hash == a.hash && c.acc == a.acc, "softsync: Workers=1 θ %s differs from Workers=%d θ %s", c.hash, cfg.Workers, a.hash)
	}
	return setups, nil
}

// oneWorkerRate is softsync's rounds per second at Workers=1 over a
// quarter of the schedule, the base of parallel.scaling_w2.
func oneWorkerRate(cfg search.Config, o opts, root int) (float64, error) {
	cfg.Workers = 1
	cfg.WarmupSteps, cfg.SearchSteps = max(cfg.WarmupSteps/4, 1), max(cfg.SearchSteps/4, 1)
	s, err := search.New(cfg)
	if err != nil {
		return 0, err
	}
	sp := o.tr.open("softsync", "softsync.workers1", root)
	defer o.tr.finish(sp)
	start := time.Now()
	for s.Round() < s.TotalRounds() {
		r0 := time.Now()
		if _, err := s.StepRound(); err != nil {
			return 0, err
		}
		o.tr.add("softsync", "search.StepRound", sp, r0, time.Since(r0))
	}
	return float64(s.TotalRounds()) / time.Since(start).Seconds(), nil
}

// finishPipeline runs what follows P2 on the paper's path — derive the
// genotype, retrain it centrally and with FedAvg, evaluate — and closes the
// pipeline's wall clock.
func finishPipeline(s *search.Search, cfg search.Config, o opts, root int, start time.Time, res *result, ckpt string, saveMs []float64) error {
	const kind = "pipeline"
	m := res.Metrics
	timed := func(name string, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		o.tr.add(kind, name, root, t0, d)
		return d.Seconds(), err
	}

	var geno nas.Genotype
	deriveS, _ := timed("search.Derive", func() error { geno = s.Derive(); return nil })

	rc := search.DefaultRetrainConfig()
	rc.Steps = o.n(1000, 2)
	var central search.RetrainResult
	centralS, err := timed("search.RetrainCentralized", func() (err error) {
		central, err = search.RetrainCentralized(s.Dataset(), cfg.Net, geno, rc, cfg.Seed+33)
		return err
	})
	if err != nil {
		return err
	}

	fc := fed.DefaultFedAvgConfig()
	fc.Rounds = o.n(80, 1)
	fc.Workers = 1
	var federated search.RetrainResult
	fedS, err := timed("search.RetrainFederated", func() (err error) {
		federated, _, err = search.RetrainFederated(s.Dataset(), cfg.Net, geno, cfg.Partition, cfg.DirichletAlpha, cfg.K, fc, cfg.Seed+44)
		return err
	})
	if err != nil {
		return err
	}

	// P4: test accuracy of the centrally retrained model, measured here so
	// the phase has its own time; it must agree with the retrain's own.
	var acc float64
	evalS, _ := timed("fed.Evaluate", func() error { acc = fed.Evaluate(central.Model, s.Dataset(), 32); return nil })
	wall := time.Since(start).Seconds()
	m.put("peak_rss_mb", peakRSSMB(), "MB")

	res.check(acc == central.TestAcc, "pipeline: P4 accuracy %v differs from the retrain's own %v", acc, central.TestAcc)
	res.check(finite(federated.TestAcc), "pipeline: non-finite federated P4 accuracy")
	res.checkAccuracy(o, acc)
	m.put("pipeline_wall_s", wall, "s")
	m.put("final_acc", acc, "share")
	res.Exact["final_acc"] = exact(acc)
	res.Exact["genotype"] = geno.String()

	m.put("search.phase.derive_ms", ms(deriveS), "ms")
	m.put("search.phase.retrain_central_s", centralS, "s")
	m.put("search.phase.retrain_fed_s", fedS, "s")
	m.put("search.phase.eval_ms", ms(evalS), "ms")
	phases := m["search.phase.warmup_s"].Value + m["search.phase.search_s"].Value + deriveS + centralS + fedS + evalS
	m.put("search.phase_sum_share", phases/wall, "share")
	m.put("fed.fedavg_round_ms", ms(fedS)/float64(fc.Rounds), "ms")
	m.put("fed.evaluate_ms", ms(evalS), "ms")
	m.put("fed.federated_acc", federated.TestAcc, "share")
	m.putN("search.checkpoint_save_ms", median(saveMs), "ms", len(saveMs))

	// Loading is not on the pipeline's path; time it after the clock stops,
	// into a fresh engine as a restarted process would.
	fresh, err := search.New(cfg)
	if err != nil {
		return err
	}
	loadS, err := timed("search.LoadCheckpoint", func() error { return fresh.LoadCheckpoint(ckpt) })
	if err != nil {
		return err
	}
	m.put("search.checkpoint_load_ms", ms(loadS), "ms")
	return os.Remove(ckpt)
}

// exact formats a float so that equal strings mean equal bits.
func exact(v float64) string { return fmt.Sprintf("%016x %v", math.Float64bits(v), v) }
