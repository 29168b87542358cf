// Command benchchaos soaks the federated RPC stack against participant
// churn: it runs a real search server over K in-process participants on
// loopback TCP, each behind a fault injector, kills a subset mid-run and
// resurrects one of them, and verifies that the server completes every
// round without hanging and re-absorbs the recovered participant
// (redials_total > 0). It also runs the identical workload fault-free and
// reports that run's final θ hash, which must be independent of the chaos
// layer being compiled in at all (the BENCH_chaos.json artifact produced
// by `make benchchaos`).
//
// Usage:
//
//	benchchaos [-out BENCH_chaos.json] [-k 8] [-rounds 30] \
//	    [-kill 1,5] [-kill-after 5] [-recover-after 12] \
//	    [-chaos latency=1ms,jitter=1ms,seed=7] [-timeout 120s]
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
	"strconv"
	"strings"
	"time"

	"fedrlnas/internal/chaos"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/telemetry"
)

type report struct {
	Workload string `json:"workload"`
	K        int    `json:"k"`
	Rounds   int    `json:"rounds"`
	Batch    int    `json:"batch"`
	CPUs     int    `json:"cpus"`
	Killed   []int  `json:"killed_participants"`
	Revived  int    `json:"revived_participant"`

	RoundsCompleted      int     `json:"rounds_completed"`
	ElapsedSeconds       float64 `json:"elapsed_seconds"`
	FreshReplies         int     `json:"fresh_replies"`
	LateReplies          int     `json:"late_replies"`
	DroppedReplies       int     `json:"dropped_replies"`
	RoundTimeouts        int64   `json:"round_timeouts_total"`
	Redials              int64   `json:"redials_total"`
	RedialAttempts       int64   `json:"redial_attempts_total"`
	CallDeadlineExceeded int64   `json:"call_deadline_exceeded_total"`
	FaultsInjected       int64   `json:"faults_injected_total"`
	ChaosKills           int64   `json:"chaos_kills_total"`
	FinalStates          []any   `json:"final_participant_states"`

	// Latency percentiles from the registry's lock-free histograms (upper
	// bucket bounds, so within 2x of the true rank value). Zero when the
	// histogram saw no samples.
	RoundP50Ms float64 `json:"round_p50_ms"`
	RoundP99Ms float64 `json:"round_p99_ms"`
	CallP50Ms  float64 `json:"rpc_call_p50_ms"`
	CallP99Ms  float64 `json:"rpc_call_p99_ms"`

	ChaosTheta   string `json:"chaos_theta_hash"`
	NoFaultTheta string `json:"no_fault_theta_hash"`

	// AllRoundsCompleted and RecoveredPeerAlive are the soak's pass gates.
	AllRoundsCompleted bool `json:"all_rounds_completed"`
	RecoveredPeerAlive bool `json:"recovered_peer_alive"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchchaos:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchchaos", flag.ContinueOnError)
	var (
		out          = fs.String("out", "BENCH_chaos.json", "write the JSON report here (empty = stdout only)")
		k            = fs.Int("k", 8, "participants on loopback")
		rounds       = fs.Int("rounds", 30, "search rounds")
		batch        = fs.Int("batch", 8, "participant batch size")
		seed         = fs.Int64("seed", 7, "shared deployment seed")
		quorum       = fs.Float64("quorum", 0.8, "fraction of live participants whose replies close a round")
		killList     = fs.String("kill", "1,5", "comma-separated participant ids to kill mid-run")
		killAfter    = fs.Int("kill-after", 5, "kill the victims once this many rounds completed")
		recoverAfter = fs.Int("recover-after", 12, "resurrect the first victim once this many rounds completed")
		chaosSpec    = fs.String("chaos", "", "background fault spec applied to every participant (see -chaos on fedrpc worker)")
		roundTO      = fs.Duration("round-timeout", 500*time.Millisecond, "server round timeout")
		callTO       = fs.Duration("call-timeout", 300*time.Millisecond, "per-RPC deadline")
		watchdog     = fs.Duration("timeout", 120*time.Second, "abort if the soak has not finished after this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	victims, err := parseKillList(*killList, *k)
	if err != nil {
		return err
	}
	if *killAfter >= *rounds || *recoverAfter >= *rounds {
		return fmt.Errorf("kill-after/recover-after must leave rounds to run (rounds=%d)", *rounds)
	}
	bg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}

	rep := report{
		Workload: fmt.Sprintf("chaos-soak-k%d", *k),
		K:        *k, Rounds: *rounds, Batch: *batch,
		CPUs:   runtime.NumCPU(),
		Killed: victims, Revived: victims[0],
	}

	// Fault-free reference first: same cluster topology minus the kill
	// schedule. Its θ hash is the determinism anchor — it must match a
	// build of this workload without any chaos plumbing at all.
	noFault, err := runOnce(*k, *rounds, *batch, *seed, *quorum, *roundTO, *callTO,
		bg, nil, -1, -1, *watchdog)
	if err != nil {
		return fmt.Errorf("no-fault reference run: %w", err)
	}
	rep.NoFaultTheta = noFault.theta
	fmt.Printf("no-fault reference: %d rounds in %.1fs, theta %s\n",
		noFault.res.RoundsCompleted, noFault.elapsed.Seconds(), noFault.theta)

	soak, err := runOnce(*k, *rounds, *batch, *seed, *quorum, *roundTO, *callTO,
		bg, victims, *killAfter, *recoverAfter, *watchdog)
	if err != nil {
		return fmt.Errorf("chaos soak: %w", err)
	}
	rep.ChaosTheta = soak.theta
	rep.RoundsCompleted = soak.res.RoundsCompleted
	rep.ElapsedSeconds = soak.elapsed.Seconds()
	rep.FreshReplies = soak.res.FreshReplies
	rep.LateReplies = soak.res.LateReplies
	rep.DroppedReplies = soak.res.DroppedReplies
	rep.RoundTimeouts = soak.timeouts
	rep.Redials = soak.redials
	rep.RedialAttempts = soak.redialAttempts
	rep.CallDeadlineExceeded = soak.deadlineExceeded
	rep.FaultsInjected = soak.faults
	rep.ChaosKills = soak.kills
	rep.RoundP50Ms = soak.roundP50
	rep.RoundP99Ms = soak.roundP99
	rep.CallP50Ms = soak.callP50
	rep.CallP99Ms = soak.callP99
	for _, st := range soak.states {
		rep.FinalStates = append(rep.FinalStates, st)
	}
	rep.AllRoundsCompleted = soak.res.RoundsCompleted == *rounds
	rep.RecoveredPeerAlive = soak.states[victims[0]].State == "alive"

	fmt.Printf("chaos soak: %d/%d rounds in %.1fs | %d timeouts, %d redials (%d attempts), %d deadline-exceeded, %d kills\n",
		soak.res.RoundsCompleted, *rounds, soak.elapsed.Seconds(),
		soak.timeouts, soak.redials, soak.redialAttempts, soak.deadlineExceeded, soak.kills)
	fmt.Printf("  latency: round p50 %.1fms p99 %.1fms | rpc p50 %.1fms p99 %.1fms\n",
		soak.roundP50, soak.roundP99, soak.callP50, soak.callP99)
	for _, st := range soak.states {
		fmt.Printf("  participant %d (%s): %s\n", st.ID, st.Addr, st.State)
	}

	// Pass gates.
	if !rep.AllRoundsCompleted {
		return fmt.Errorf("server completed %d/%d rounds under chaos", soak.res.RoundsCompleted, *rounds)
	}
	if soak.redials < 1 {
		return fmt.Errorf("redials_total = %d: the revived participant was never re-absorbed", soak.redials)
	}
	if !rep.RecoveredPeerAlive {
		return fmt.Errorf("revived participant %d ended the run %s, want alive",
			victims[0], soak.states[victims[0]].State)
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

func parseKillList(list string, k int) ([]int, error) {
	var victims []int
	for _, f := range strings.Split(list, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -kill entry %q: %w", f, err)
		}
		if id < 0 || id >= k {
			return nil, fmt.Errorf("-kill id %d outside [0,%d)", id, k)
		}
		victims = append(victims, id)
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("-kill list is empty")
	}
	return victims, nil
}

// soakNet matches benchrpc's workload shape: conv-dominated payloads, but
// small enough that K participants train on one host in seconds.
func soakNet() nas.Config {
	return nas.Config{
		InChannels: 3, NumClasses: 10, C: 6, Layers: 2, Nodes: 2,
		Candidates: nas.AllOps,
	}
}

type runOutcome struct {
	res     rpcfed.ServerResult
	elapsed time.Duration
	theta   string
	states  []rpcfed.ParticipantStatus

	timeouts, redials, redialAttempts, deadlineExceeded int64
	faults, kills                                       int64

	roundP50, roundP99, callP50, callP99 float64
}

// pctMs reads one percentile off a histogram in milliseconds, mapping the
// empty (NaN) and overflow (+Inf) sentinels to 0 so the value is always
// JSON-encodable.
func pctMs(h *telemetry.Histogram, p float64) float64 {
	v := h.Percentile(p)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v * 1e3
}

// runOnce builds a fresh K-participant loopback cluster (every listener
// wrapped by a fault injector) and runs one search over it. With a nil
// victims list the injectors never fire beyond the background spec — with
// an empty background spec that run is byte-for-byte the plain server
// workload. Otherwise the victims are taken down once killAfter rounds
// completed and victims[0] is brought back after recoverAfter rounds.
func runOnce(k, rounds, batch int, seed int64, quorum float64,
	roundTO, callTO time.Duration, bg chaos.Config,
	victims []int, killAfter, recoverAfter int, watchdog time.Duration) (runOutcome, error) {

	ds, err := data.Generate(data.Spec{
		Name: "chaosbench", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: seed + 12,
	})
	if err != nil {
		return runOutcome{}, err
	}
	part, err := data.IIDPartition(ds.NumTrain(), k, rand.New(rand.NewSource(seed+5)))
	if err != nil {
		return runOutcome{}, err
	}

	reg := telemetry.NewRegistry()
	var (
		addrs     []string
		listeners []net.Listener
		injectors []*chaos.Injector
	)
	defer func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
	}()
	for i := 0; i < k; i++ {
		svc, err := rpcfed.NewParticipantService(i, ds, part.Indices[i], soakNet(), seed+int64(100+i))
		if err != nil {
			return runOutcome{}, err
		}
		cfg := bg
		cfg.Seed = bg.Seed + int64(i) // distinct per-participant fault streams
		inj, err := chaos.New(cfg)
		if err != nil {
			return runOutcome{}, err
		}
		inj.Observe(reg)
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return runOutcome{}, err
		}
		ln := inj.Listener(raw)
		if _, err := svc.ServeListener(ln); err != nil {
			_ = ln.Close()
			return runOutcome{}, err
		}
		listeners = append(listeners, ln)
		injectors = append(injectors, inj)
		addrs = append(addrs, ln.Addr().String())
	}

	scfg := rpcfed.DefaultServerConfig(soakNet())
	scfg.Rounds = rounds
	scfg.BatchSize = batch
	scfg.Quorum = quorum
	scfg.RoundTimeout = roundTO
	scfg.Transport.Workers = 1
	scfg.Transport.CallTimeout = callTO
	scfg.Transport.DialBackoff = 10 * time.Millisecond
	scfg.Seed = seed
	srv, err := rpcfed.NewServer(scfg, addrs)
	if err != nil {
		return runOutcome{}, err
	}
	defer srv.Close()
	srv.SetTelemetry(nil, reg)
	rm := telemetry.NewRoundMetrics(reg) // same handles SetTelemetry registered
	lm := telemetry.NewLifecycleMetrics(reg, k)
	cm := telemetry.NewChaosMetrics(reg)

	// The kill/recover schedule keys off the live rounds counter, so the
	// outage lands mid-search regardless of per-round wall time.
	if len(victims) > 0 {
		go func() {
			waitRounds(rm.Rounds, int64(killAfter))
			for _, v := range victims {
				injectors[v].SetDown(true)
			}
			waitRounds(rm.Rounds, int64(recoverAfter))
			injectors[victims[0]].SetDown(false)
		}()
	}

	type outcome struct {
		res rpcfed.ServerResult
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := srv.Run()
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(watchdog):
		return runOutcome{}, fmt.Errorf("watchdog: run not finished after %v (states: %+v)",
			watchdog, srv.ParticipantStates())
	}
	if out.err != nil {
		return runOutcome{}, out.err
	}
	// The redial loop keeps running until srv.Close, so a recovery that
	// lands in the run's final rounds may complete just after it: give the
	// re-absorption a grace window before snapshotting states.
	if len(victims) > 0 {
		grace := time.Now().Add(15 * time.Second)
		for time.Now().Before(grace) {
			if lm.Redials.Value() >= 1 &&
				srv.ParticipantStates()[victims[0]].State == "alive" {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return runOutcome{
		res:              out.res,
		elapsed:          time.Since(start),
		theta:            thetaHash(srv),
		states:           srv.ParticipantStates(),
		timeouts:         rm.Timeouts.Value(),
		redials:          lm.Redials.Value(),
		redialAttempts:   lm.RedialAttempts.Value(),
		deadlineExceeded: lm.DeadlineExceeded.Value(),
		faults:           cm.Faults.Value(),
		kills:            cm.Kills.Value(),
		roundP50:         pctMs(rm.RoundSeconds, 50),
		roundP99:         pctMs(rm.RoundSeconds, 99),
		callP50:          pctMs(lm.CallSeconds, 50),
		callP99:          pctMs(lm.CallSeconds, 99),
	}, nil
}

func waitRounds(c *telemetry.Counter, want int64) {
	for c.Value() < want {
		time.Sleep(2 * time.Millisecond)
	}
}

// thetaHash fingerprints the final supernet parameters, comparable across
// runs and builds.
func thetaHash(s *rpcfed.Server) string {
	return fmt.Sprintf("%016x", nn.ParamHash(s.Supernet().Params()))
}
