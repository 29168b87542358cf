// Command fedsearch runs the full four-phase federated model search
// pipeline (warm-up, RL search, retraining, evaluation) with configurable
// knobs, printing the searched genotype and final accuracies.
//
// Example:
//
//	fedsearch -dataset cifar10s -k 10 -scenario '{"skew":{"kind":"dirichlet","alpha":0.5}}' -warmup 60 -search 200
//	fedsearch -staleness severe -strategy dc -lambda 1.0
package main

import (
	"flag"
	"fmt"
	"os"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/transmission"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedsearch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedsearch", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "cifar10s", "dataset: cifar10s, svhns, cifar100s")
		k         = fs.Int("k", 10, "number of participants")
		enrolled  = fs.Int("enrolled", 0, "enrolled population size (0 = -k); only sampled participants materialize model state")
		cohortSz  = fs.Int("cohort", 0, "participants sampled per round (0 = everyone); also sets the federated-retrain client fraction")
		shards    = fs.Int("shards", 0, "aggregation-tree shards for the theta merge (0 or 1 = single root; results are bit-identical at any value)")
		scenArg   = fs.String("scenario", "", "device-population scenario: "+scenario.Grammar+" (profiles: "+scenario.CatalogNames()+")")
		personal  = fs.Bool("personalize", false, "personalized search: shared supernet body, per-client classifier heads")
		headLR    = fs.Float64("head-lr", 0, "personal head SGD learning rate (0 = theta lr)")
		warmup    = fs.Int("warmup", 30, "warm-up rounds (P1)")
		searchN   = fs.Int("search", 60, "search rounds (P2)")
		retrain   = fs.Int("retrain", 120, "centralized retrain steps (P3)")
		fedRounds = fs.Int("fed-rounds", 0, "federated retrain rounds (0 skips federated P3)")
		batch     = fs.Int("batch", 16, "participant batch size")
		stale     = fs.String("staleness", "none", "staleness schedule: none, severe, slight")
		strategy  = fs.String("strategy", "hard", "stale-update strategy: hard, use, throw, dc")
		lambda    = fs.Float64("lambda", 1.0, "delay-compensation strength")
		transPol  = fs.String("transmission", "adaptive", "sub-model assignment: adaptive, random, uniform")
		seed      = fs.Int64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "concurrent participants per round (0 = NumCPU); results are identical at any value")
		alphaOnly = fs.Bool("alpha-only", false, "freeze theta during search (Fig. 5 ablation)")
		genoOut   = fs.String("genotype-out", "", "write the searched genotype to this JSON file")
		ckptOut   = fs.String("checkpoint-out", "", "stream crash-safe search checkpoints (theta, alpha, optimizer and RNG state) to this file")
		ckptEvery = fs.Int("checkpoint-every", 0, "with -checkpoint-out, also checkpoint every N rounds (0 = end of search only)")
		resume    = fs.String("resume", "", "resume P1/P2 from this checkpoint (config must match the saved run)")
		traceOut  = fs.String("trace", "", "write a JSONL span trace of every search round to this file")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz, expvar and pprof on this address (e.g. 127.0.0.1:6060)")
		precArg   = fs.String("precision", "fp64", "compute precision: fp64 (bit-identical runs) or fp32 (faster SIMD path, convergence parity only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prec, err := nn.ParsePrecision(*precArg)
	if err != nil {
		return err
	}

	cfg := search.DefaultConfig()
	cfg.Precision = prec
	switch *dataset {
	case "cifar10s":
		cfg.Dataset = data.CIFAR10S()
	case "svhns":
		cfg.Dataset = data.SVHNS()
	case "cifar100s":
		cfg.Dataset = data.CIFAR100S()
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	cfg.Net.NumClasses = cfg.Dataset.NumClasses
	cfg.Net.InChannels = cfg.Dataset.Channels
	cfg.K = *k
	if *enrolled > 0 {
		cfg.K = *enrolled
	}
	cfg.CohortSize = *cohortSz
	cfg.Shards = *shards
	// Large enrollments need enough training data for every participant to
	// hold at least one sample after partitioning.
	if need := (cfg.K + cfg.Dataset.NumClasses - 1) / cfg.Dataset.NumClasses; need > cfg.Dataset.TrainPerClass {
		cfg.Dataset.TrainPerClass = need
	}
	if *scenArg != "" {
		spec, err := scenario.Parse(*scenArg)
		if err != nil {
			return err
		}
		cfg.Scenario = spec
	}
	if *personal || *headLR > 0 {
		if cfg.Scenario == nil {
			cfg.Scenario = &scenario.Spec{}
		}
		cfg.Scenario.Personalize = true
		// A scenario file's head_lr survives a bare -personalize; the flag
		// only overrides when explicitly set.
		if *headLR > 0 {
			cfg.Scenario.HeadLR = *headLR
		}
	}
	cfg.WarmupSteps = *warmup
	cfg.SearchSteps = *searchN
	cfg.BatchSize = *batch
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.AlphaOnly = *alphaOnly
	cfg.Lambda = *lambda

	switch *stale {
	case "none":
		cfg.Staleness = staleness.NoStaleness()
	case "severe":
		cfg.Staleness = staleness.Severe()
	case "slight":
		cfg.Staleness = staleness.Slight()
	default:
		return fmt.Errorf("unknown staleness %q", *stale)
	}
	switch *strategy {
	case "hard":
		cfg.Strategy = staleness.Hard
	case "use":
		cfg.Strategy = staleness.Use
	case "throw":
		cfg.Strategy = staleness.Throw
	case "dc":
		cfg.Strategy = staleness.DC
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	switch *transPol {
	case "adaptive":
		cfg.Transmission = transmission.Adaptive
	case "random":
		cfg.Transmission = transmission.Random
	case "uniform":
		cfg.Transmission = transmission.Uniform
	default:
		return fmt.Errorf("unknown transmission policy %q", *transPol)
	}

	rcfg := search.DefaultRetrainConfig()
	rcfg.Steps = *retrain
	opts := search.PipelineOptions{Centralized: &rcfg}
	if *fedRounds > 0 {
		fcfg := fed.DefaultFedAvgConfig()
		fcfg.Rounds = *fedRounds
		fcfg.Workers = *workers
		if *cohortSz > 0 && *cohortSz < cfg.K {
			// One cohort knob across phases: the P3 federated retrain
			// samples the same share of the population per round.
			fcfg.ClientFraction = float64(*cohortSz) / float64(cfg.K)
		}
		opts.Federated = &fcfg
	}

	registry := telemetry.NewRegistry()
	opts.Registry = registry
	if *debugAddr != "" {
		dbg, err := telemetry.StartDebugServer(*debugAddr, registry)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint on http://%s (/metrics, /healthz, /debug/pprof/)\n", dbg.Addr())
	}
	if *traceOut != "" {
		tracer, err := telemetry.OpenJSONL(*traceOut)
		if err != nil {
			return err
		}
		tracer.SetDropCounter(registry.Counter("trace_dropped_total",
			"trace events dropped after a trace-file write failure"))
		opts.Tracer = tracer
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedsearch: trace:", err)
			} else {
				fmt.Printf("trace written to %s (%d events)\n", *traceOut, tracer.Events())
			}
		}()
	}

	cohortNote := ""
	if *cohortSz > 0 && *cohortSz < cfg.K {
		cohortNote = fmt.Sprintf(" (cohort %d/round)", *cohortSz)
	}
	fmt.Printf("P1 warm-up (%d rounds) + P2 search (%d rounds), K=%d%s, %s…\n",
		cfg.WarmupSteps, cfg.SearchSteps, cfg.K, cohortNote, cfg.Dataset.Name)
	opts.Resume = *resume
	opts.CheckpointPath = *ckptOut
	opts.CheckpointEvery = *ckptEvery
	if *resume != "" {
		fmt.Printf("resuming from %s\n", *resume)
	}
	res, err := search.RunPipeline(cfg, opts)
	if err != nil {
		return err
	}
	if *ckptOut != "" {
		fmt.Printf("checkpoint written to %s\n", *ckptOut)
	}
	if *genoOut != "" {
		if err := nas.SaveGenotype(*genoOut, res.Genotype); err != nil {
			return err
		}
		fmt.Printf("genotype written to %s\n", *genoOut)
	}
	fmt.Printf("searched genotype: %v\n", res.Genotype)
	fmt.Printf("search curve: start %.3f -> tail %.3f (entropy %.4f)\n",
		firstVal(res.SearchCurve.Values()), res.SearchCurve.TailMean(10), res.EntropyCurve.Last())
	fmt.Printf("virtual search time: %.2f h | sub-model %.3f MB vs supernet %.3f MB\n",
		res.SearchSeconds/3600, res.MeanSubModelMB, res.SupernetMB)
	fmt.Printf("P4 centralized: error %.2f%% (%d params)\n",
		res.Centralized.TestErr*100, res.Centralized.ParamCount)
	if opts.Federated != nil {
		fmt.Printf("P4 federated:   error %.2f%% (%d params)\n",
			res.Federated.TestErr*100, res.Federated.ParamCount)
	}
	return nil
}

func firstVal(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return vals[0]
}
