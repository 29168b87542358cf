// Command benchprofiles benchmarks the scenario engine end to end and
// emits the BENCH_profiles.json artifact (`make benchprofiles`). Three
// sections:
//
//  1. Determinism pin: an in-process 3-participant loopback RPC search
//     with an EMPTY scenario must land on the exact pre-scenario final θ
//     hash (the same constant TestNoFaultBitIdentityPinned pins) — the
//     scenario layer lowers to nothing when nothing is asked of it.
//  2. Profile matrix: a short search per catalog profile plus one mixed
//     population, reporting wall ms/round, virtual search time, tail
//     training accuracy, argmax-genotype test accuracy, and churn skips.
//  3. Personalization A/B: under heavy Dirichlet skew, per-client
//     classifier heads must beat the shared global head on test sets
//     matched to each client's label distribution (the pass gate).
//
// Usage:
//
//	benchprofiles [-out BENCH_profiles.json] [-k 8] [-warmup 6] [-search 12] [-gate]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
)

// pinnedTheta is the fault-free 3-worker loopback hash rpcfed's
// TestNoFaultBitIdentityPinned pins. An empty scenario must reproduce it bit
// for bit.
const pinnedTheta = "cf850b88167716d8"

type pinReport struct {
	Scenario string `json:"scenario"`
	Theta    string `json:"theta_hash"`
	Pinned   string `json:"pinned_hash"`
	Match    bool   `json:"match"`
}

type profileRow struct {
	Name       string  `json:"name"`
	Population string  `json:"population"`
	Speed      float64 `json:"speed"`
	Churn      float64 `json:"churn"`
	SkewAlpha  float64 `json:"skew_alpha"`

	Rounds         int     `json:"rounds"`
	WallMsPerRound float64 `json:"wall_ms_per_round"`
	VirtualHours   float64 `json:"virtual_hours"`
	TailTrainAcc   float64 `json:"tail_train_acc"`
	TestAcc        float64 `json:"test_acc"`
	OfflineSkips   int     `json:"offline_skips"`
	Genotype       string  `json:"genotype"`
}

type abReport struct {
	DirichletAlpha float64 `json:"dirichlet_alpha"`
	K              int     `json:"k"`
	Rounds         int     `json:"rounds"`
	GlobalAcc      float64 `json:"global_acc"`
	PersonalAcc    float64 `json:"personal_acc"`
	Improved       bool    `json:"improved"`
}

type report struct {
	K      int    `json:"k"`
	Warmup int    `json:"warmup_rounds"`
	Search int    `json:"search_rounds"`
	CPUs   int    `json:"cpus"`
	Seed   int64  `json:"seed"`
	Quick  string `json:"config"`

	Pin             pinReport    `json:"empty_scenario_pin"`
	Profiles        []profileRow `json:"profiles"`
	Personalization abReport     `json:"personalization"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchprofiles:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchprofiles", flag.ContinueOnError)
	var (
		out    = fs.String("out", "BENCH_profiles.json", "write the JSON report here (empty = stdout only)")
		k      = fs.Int("k", 8, "participants per scenario run")
		warmup = fs.Int("warmup", 6, "warm-up rounds per run")
		steps  = fs.Int("search", 12, "search rounds per run")
		seed   = fs.Int64("seed", 1, "run seed")
		gate   = fs.Bool("gate", true, "enforce the personalized >= global pass gate; disable for 1-round smoke runs (the θ pin gate is always on)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := report{
		K: *k, Warmup: *warmup, Search: *steps,
		CPUs: runtime.NumCPU(), Seed: *seed,
		Quick: "synthetic quick config (tiny dataset, 2-layer supernet)",
	}

	// 1. Empty-scenario determinism pin.
	pin, err := runPin()
	if err != nil {
		return fmt.Errorf("pin run: %w", err)
	}
	rep.Pin = pin
	fmt.Printf("empty-scenario pin: theta %s (pinned %s) match=%v\n", pin.Theta, pin.Pinned, pin.Match)
	if !pin.Match {
		return fmt.Errorf("empty scenario changed the pinned θ hash: %s != %s", pin.Theta, pin.Pinned)
	}

	// 2. Profile matrix: every catalog profile, then a mixed population.
	populations := make([]string, 0, 8)
	for _, p := range scenario.Catalog() {
		populations = append(populations, p.Name)
	}
	populations = append(populations, "70%phone-urban+30%iot-rural")
	for _, pop := range populations {
		row, err := runProfile(pop, *k, *warmup, *steps, *seed)
		if err != nil {
			return fmt.Errorf("profile %s: %w", pop, err)
		}
		rep.Profiles = append(rep.Profiles, row)
		fmt.Printf("%-32s %6.1f ms/round  test acc %.3f  offline %d\n",
			row.Population, row.WallMsPerRound, row.TestAcc, row.OfflineSkips)
	}

	// 3. Personalization A/B under heavy skew.
	ab, err := runPersonalizationAB(*k, *warmup, *steps, *seed)
	if err != nil {
		return fmt.Errorf("personalization A/B: %w", err)
	}
	rep.Personalization = ab
	fmt.Printf("personalization (alpha=%.2f): global %.3f vs personal %.3f -> improved=%v\n",
		ab.DirichletAlpha, ab.GlobalAcc, ab.PersonalAcc, ab.Improved)
	if *gate && !ab.Improved {
		return fmt.Errorf("personalized heads (%.3f) did not reach global accuracy (%.3f) under skew",
			ab.PersonalAcc, ab.GlobalAcc)
	}

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
	return nil
}

// runPin reproduces the rpcfed no-fault pin configuration — 3 loopback
// participants, the rpct dataset, IID shards — after proving the empty
// scenario resolves to nothing, and returns the final θ hash.
func runPin() (pinReport, error) {
	rep := pinReport{Scenario: "", Pinned: pinnedTheta}

	// The empty scenario must lower to a no-op: no profiles, no skew.
	spec, err := scenario.Parse("")
	if err != nil {
		return rep, err
	}
	if !spec.IsZero() {
		return rep, fmt.Errorf("Parse(%q) produced a non-zero spec", "")
	}
	if profiles, _, err := (&scenario.Spec{}).Resolve(); err != nil || len(profiles) != 0 {
		return rep, fmt.Errorf("empty spec resolved to %d profiles (err=%v)", len(profiles), err)
	}

	net4 := nas.Config{InChannels: 2, NumClasses: 4, C: 3, Layers: 2, Nodes: 1, Candidates: nas.AllOps}
	ds, err := data.Generate(data.Spec{
		Name: "rpct", NumClasses: 4, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 24, TestPerClass: 6, Noise: 1.0, Confusion: 0.3, Seed: 13,
	})
	if err != nil {
		return rep, err
	}
	// With no profiles the partition falls back to the plain IID split the
	// pre-scenario deployment used.
	part, err := data.IIDPartition(ds.NumTrain(), 3, rand.New(rand.NewSource(5)))
	if err != nil {
		return rep, err
	}

	var (
		addrs     []string
		listeners []net.Listener
	)
	defer func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		svc, err := rpcfed.NewParticipantService(i, ds, part.Indices[i], net4, int64(100+i))
		if err != nil {
			return rep, err
		}
		ln, _, err := svc.Serve("127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}

	cfg := rpcfed.DefaultServerConfig(net4)
	cfg.Rounds = 6
	cfg.BatchSize = 8
	cfg.Quorum = 1
	cfg.Transport.Workers = 2
	cfg.Seed = 7
	srv, err := rpcfed.NewServer(cfg, addrs)
	if err != nil {
		return rep, err
	}
	defer srv.Close()
	if _, err := srv.Run(); err != nil {
		return rep, err
	}
	rep.Theta = thetaHash(srv)
	rep.Match = rep.Theta == rep.Pinned
	return rep, nil
}

// quickConfig is the shared in-process search workload: a tiny synthetic
// dataset and a 2-layer supernet, sized so the whole matrix runs in seconds.
func quickConfig(k, warmup, steps int, seed int64) search.Config {
	cfg := search.DefaultConfig()
	cfg.Dataset = data.Spec{
		Name: "profbench", NumClasses: 5, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 40, TestPerClass: 10, Noise: 1.0, Confusion: 0.3, Seed: 91,
	}
	cfg.Net = nas.Config{
		InChannels: 2, NumClasses: 5, C: 4, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
	cfg.K = k
	cfg.BatchSize = 8
	cfg.WarmupSteps = warmup
	cfg.SearchSteps = steps
	cfg.Seed = seed
	return cfg
}

// runSearch builds and runs one scenario search, returning it with the
// elapsed wall time.
func runSearch(cfg search.Config) (*search.Search, time.Duration, error) {
	s, err := search.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := s.Warmup(); err != nil {
		return nil, 0, err
	}
	if err := s.Run(); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func runProfile(pop string, k, warmup, steps int, seed int64) (profileRow, error) {
	spec, err := scenario.Parse(pop)
	if err != nil {
		return profileRow{}, err
	}
	cfg := quickConfig(k, warmup, steps, seed)
	cfg.Scenario = spec
	s, elapsed, err := runSearch(cfg)
	if err != nil {
		return profileRow{}, err
	}

	row := profileRow{Name: spec.Name, Population: pop, Rounds: warmup + steps}
	profiles, assignment := s.Profiles()
	if len(profiles) == 1 {
		row.Speed = profiles[0].SpeedFactor()
		row.Churn = profiles[0].Churn
		row.SkewAlpha = profiles[0].SkewAlpha
	} else {
		// Mixed population: report the assignment-weighted means.
		for _, g := range assignment {
			row.Speed += profiles[g].SpeedFactor()
			row.Churn += profiles[g].Churn
			row.SkewAlpha += profiles[g].SkewAlpha
		}
		row.Speed /= float64(len(assignment))
		row.Churn /= float64(len(assignment))
		row.SkewAlpha /= float64(len(assignment))
	}
	row.WallMsPerRound = elapsed.Seconds() * 1e3 / float64(row.Rounds)
	row.VirtualHours = s.TotalSeconds() / 3600
	row.TailTrainAcc = s.SearchCurve.TailMean(5)
	row.OfflineSkips = s.Stats.Offline
	row.Genotype = s.Derive().String()

	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return profileRow{}, err
	}
	allTest := make([]int, ds.NumTest())
	for i := range allTest {
		allTest[i] = i
	}
	row.TestAcc = s.EvalGates(s.ArgmaxGates(), allTest, 16, -1)
	return row, nil
}

// runPersonalizationAB runs the same heavily skewed search twice — global
// head vs per-client heads — and scores each client on a test set matched
// to its own label distribution.
func runPersonalizationAB(k, warmup, steps int, seed int64) (abReport, error) {
	const alpha = 0.1
	rep := abReport{DirichletAlpha: alpha, K: k, Rounds: warmup + steps}

	base := quickConfig(k, warmup, steps, seed)
	skew := &scenario.Skew{Kind: scenario.SkewDirichlet, Alpha: alpha}

	global := base
	global.Scenario = &scenario.Spec{Skew: skew}
	sg, _, err := runSearch(global)
	if err != nil {
		return rep, fmt.Errorf("global run: %w", err)
	}

	personal := base
	personal.Scenario = &scenario.Spec{Skew: skew, Personalize: true}
	sp, _, err := runSearch(personal)
	if err != nil {
		return rep, fmt.Errorf("personalized run: %w", err)
	}
	if !sp.Personalized() {
		return rep, fmt.Errorf("personalized run did not enable heads")
	}

	ds, err := data.Generate(base.Dataset)
	if err != nil {
		return rep, err
	}
	// Both runs share the partition RNG stream, so client pid holds the
	// same shard in each; score every client on its matched test slice.
	part := sp.Partition()
	var globalSum, personalSum float64
	clients := 0
	for pid, idxs := range part.Indices {
		dist := make([]float64, base.Dataset.NumClasses)
		for _, idx := range idxs {
			dist[ds.TrainLabels[idx]] += 1 / float64(len(idxs))
		}
		testIdx := scenario.PersonalTestIndices(dist, ds.TestLabels, ds.NumTest())
		if len(testIdx) == 0 {
			continue
		}
		globalSum += sg.EvalGates(sg.ArgmaxGates(), testIdx, 16, -1)
		personalSum += sp.EvalGates(sp.ArgmaxGates(), testIdx, 16, pid)
		clients++
	}
	if clients == 0 {
		return rep, fmt.Errorf("no clients with a matched test set")
	}
	rep.GlobalAcc = globalSum / float64(clients)
	rep.PersonalAcc = personalSum / float64(clients)
	// Guard against NaN sneaking through the gate comparison.
	if math.IsNaN(rep.GlobalAcc) || math.IsNaN(rep.PersonalAcc) {
		return rep, fmt.Errorf("accuracy is NaN (global %v, personal %v)", rep.GlobalAcc, rep.PersonalAcc)
	}
	rep.Improved = rep.PersonalAcc >= rep.GlobalAcc
	return rep, nil
}

// thetaHash fingerprints the final supernet parameters, the same fingerprint
// the rpcfed determinism tests use.
func thetaHash(s *rpcfed.Server) string {
	return fmt.Sprintf("%016x", nn.ParamHash(s.Supernet().Params()))
}
