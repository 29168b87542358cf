// Command benchrpc measures the federated RPC wire protocol end to end:
// it runs a real search server against K in-process participants over
// loopback TCP once per payload encoding and reports bytes/round, time/round
// and codec overhead for each (the BENCH_rpc.json artifact produced by
// `make benchrpc`).
//
// Usage:
//
//	benchrpc [-out BENCH_rpc.json] [-k 8] [-rounds 5] [-modes gob,fp64,fp32,sparse,topk]
//
// Every mode runs the identical workload (same dataset, shards, seeds), so
// the final supernet parameters double as a correctness fingerprint: gob,
// fp64 and sparse must land on bit-identical theta, fp32 must not (it
// rounds mantissas in transit). A hash mismatch where identity is required
// is a protocol bug and the run fails. The topk mode (error-feedback top-k
// sparsification) is gated on convergence parity instead: its theta must
// differ from gob (it is lossy by construction) while its tail-mean
// training accuracy stays within -acc-tolerance of the gob baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

type modeResult struct {
	Mode   string `json:"mode"`
	Rounds int    `json:"rounds"`
	// BytesPerRound is total wire traffic (both directions, measured at the
	// server's sockets) divided by rounds.
	BytesPerRound   int64   `json:"bytes_per_round"`
	BytesSentTotal  int64   `json:"bytes_sent_total"`
	BytesRecvTotal  int64   `json:"bytes_received_total"`
	MessagesTotal   int64   `json:"messages_total"`
	MsPerRound      float64 `json:"ms_per_round"`
	EncodeMsTotal   float64 `json:"encode_ms_total"`
	DecodeMsTotal   float64 `json:"decode_ms_total"`
	ThetaHash       string  `json:"theta_hash"`
	BytesRatioVsGob float64 `json:"bytes_ratio_vs_gob,omitempty"`
	// FinalAccuracy is the tail mean (last 2 rounds) of the fresh-reply
	// training accuracy curve — the convergence-parity metric for lossy
	// modes.
	FinalAccuracy     float64 `json:"final_accuracy"`
	FreshReplies      int     `json:"fresh_replies"`
	DroppedReplies    int     `json:"dropped_replies"`
	GenotypeAvailable bool    `json:"genotype_available"`
}

type report struct {
	Workload string       `json:"workload"`
	K        int          `json:"k"`
	Rounds   int          `json:"rounds"`
	Batch    int          `json:"batch"`
	CPUs     int          `json:"cpus"`
	Results  []modeResult `json:"results"`
	// BestBytesRatioVsGob is gob bytes/round over the cheapest lossy or
	// lossless-compact mode's bytes/round (higher is better; the wire
	// protocol targets >= 2x via fp32).
	BestBytesRatioVsGob float64 `json:"best_bytes_ratio_vs_gob"`
	// FP64BitIdentical records the protocol's core safety property: the
	// binary fp64 codec reaches the same final theta as gob, bit for bit.
	FP64BitIdentical bool `json:"fp64_bit_identical"`
	// TopKBytesRatioVsGob is gob bytes/round over topk bytes/round (the
	// compression win of error-feedback sparsification), and
	// TopKConvergenceParity records that topk's final accuracy stayed
	// within tolerance of gob's. Both zero-valued when topk did not run.
	TopKBytesRatioVsGob   float64 `json:"topk_bytes_ratio_vs_gob,omitempty"`
	TopKConvergenceParity bool    `json:"topk_convergence_parity,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchrpc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchrpc", flag.ContinueOnError)
	var (
		out       = fs.String("out", "BENCH_rpc.json", "write the JSON report here (empty = stdout only)")
		k         = fs.Int("k", 8, "participants on loopback")
		rounds    = fs.Int("rounds", 5, "search rounds per mode")
		batch     = fs.Int("batch", 8, "participant batch size")
		modesArg  = fs.String("modes", "gob,fp64,fp32,sparse,topk", "comma-separated payload encodings to benchmark")
		seed      = fs.Int64("seed", 1, "shared deployment seed")
		topkRatio = fs.Float64("topk-ratio", 0.1, "downlink fraction of weight-delta coordinates shipped per tensor in topk mode")
		topkGrad  = fs.Float64("topk-grad-ratio", 0.025, "uplink fraction of gradient coordinates shipped per tensor in topk mode")
		accTol    = fs.Float64("acc-tolerance", 0.25, "max |final accuracy - gob| accepted from lossy topk mode")
		traceDir  = fs.String("trace-dir", "", "write JSONL span traces here: server-<mode>.jsonl plus worker<i>-<mode>.jsonl per participant (empty = tracing off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var modes []wire.Mode
	for _, f := range strings.Split(*modesArg, ",") {
		m, err := wire.ParseMode(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		return fmt.Errorf("no modes")
	}

	rep := report{
		Workload: fmt.Sprintf("rpc-search-k%d", *k),
		K:        *k,
		Rounds:   *rounds,
		Batch:    *batch,
		CPUs:     runtime.NumCPU(),
	}
	hashes := map[wire.Mode]string{}
	accs := map[wire.Mode]float64{}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	for _, m := range modes {
		r, err := benchMode(m, *k, *rounds, *batch, *seed, *topkRatio, *topkGrad, *traceDir)
		if err != nil {
			return fmt.Errorf("mode %s: %w", m, err)
		}
		hashes[m] = r.ThetaHash
		accs[m] = r.FinalAccuracy
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-6s %8d bytes/round  %7.1f ms/round  enc %6.2fms dec %6.2fms  acc %.3f  theta %s\n",
			r.Mode, r.BytesPerRound, r.MsPerRound, r.EncodeMsTotal, r.DecodeMsTotal, r.FinalAccuracy, r.ThetaHash)
	}

	var gobBytes int64
	for _, r := range rep.Results {
		if r.Mode == wire.Gob.String() {
			gobBytes = r.BytesPerRound
		}
	}
	if gobBytes > 0 {
		for i := range rep.Results {
			r := &rep.Results[i]
			if r.Mode == wire.Gob.String() || r.BytesPerRound == 0 {
				continue
			}
			r.BytesRatioVsGob = float64(gobBytes) / float64(r.BytesPerRound)
			if r.BytesRatioVsGob > rep.BestBytesRatioVsGob {
				rep.BestBytesRatioVsGob = r.BytesRatioVsGob
			}
		}
		fmt.Printf("best bytes reduction vs gob: %.2fx\n", rep.BestBytesRatioVsGob)
	}

	// Correctness gates: every lossless mode must reproduce gob's theta
	// exactly; fp32 must visibly diverge (otherwise it silently ran fp64).
	if gh, ok := hashes[wire.Gob]; ok {
		for _, m := range []wire.Mode{wire.FP64, wire.Sparse} {
			if h, ok := hashes[m]; ok && h != gh {
				return fmt.Errorf("%s theta %s != gob theta %s: lossless mode diverged", m, h, gh)
			}
		}
		if h, ok := hashes[wire.FP32]; ok && h == gh {
			return fmt.Errorf("fp32 theta matches gob exactly — quantization is not being applied")
		}
		// The topk transport is gated on convergence parity, not identity:
		// it must visibly sparsify (different theta) yet train to the same
		// neighborhood as the dense baseline.
		if h, ok := hashes[wire.TopK]; ok {
			if h == gh {
				return fmt.Errorf("topk theta matches gob exactly — sparsification is not being applied")
			}
			// Accuracy parity is only meaningful once training has actually
			// moved: 1-round smoke runs compare chance-level noise.
			if *rounds >= 5 {
				if diff := math.Abs(accs[wire.TopK] - accs[wire.Gob]); diff > *accTol {
					return fmt.Errorf("topk final accuracy %.3f vs gob %.3f differs by %.3f > tolerance %.3f — error feedback is not preserving convergence",
						accs[wire.TopK], accs[wire.Gob], diff, *accTol)
				}
				rep.TopKConvergenceParity = true
			}
		}
	}
	if h64, ok := hashes[wire.FP64]; ok {
		rep.FP64BitIdentical = hashes[wire.Gob] == "" || h64 == hashes[wire.Gob]
	}
	for _, r := range rep.Results {
		if r.Mode == wire.TopK.String() {
			rep.TopKBytesRatioVsGob = r.BytesRatioVsGob
		}
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

// benchNet is the benchmark supernet: big enough that conv weights dominate
// the payload (as in the paper's workload) but small enough that K
// participants train on one host in seconds.
func benchNet() nas.Config {
	return nas.Config{
		InChannels: 3, NumClasses: 10, C: 6, Layers: 2, Nodes: 2,
		Candidates: nas.AllOps,
	}
}

func benchDataset(seed int64) (*data.Dataset, error) {
	return data.Generate(data.Spec{
		Name: "rpcbench", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: seed,
	})
}

// benchMode runs one full federated search over loopback TCP with the given
// payload encoding. Every mode gets an identical fresh cluster (same
// dataset, shards and seeds) so final-theta hashes are comparable. With a
// non-empty traceDir each side writes its own JSONL span file, exactly as a
// multi-process deployment would — the inputs `fedtrace` stitches.
func benchMode(mode wire.Mode, k, rounds, batch int, seed int64, topkRatio, topkGradRatio float64, traceDir string) (modeResult, error) {
	ds, err := benchDataset(seed + 12)
	if err != nil {
		return modeResult{}, err
	}
	part, err := data.IIDPartition(ds.NumTrain(), k, rand.New(rand.NewSource(seed+5)))
	if err != nil {
		return modeResult{}, err
	}
	var (
		addrs     []string
		listeners []net.Listener
		tracers   []*telemetry.Tracer
	)
	closeCluster := func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
		listeners = nil
		for _, tr := range tracers {
			_ = tr.Close()
		}
		tracers = nil
	}
	defer closeCluster()
	openTracer := func(name string) (*telemetry.Tracer, error) {
		if traceDir == "" {
			return nil, nil
		}
		tr, err := telemetry.OpenJSONL(filepath.Join(traceDir, fmt.Sprintf("%s-%s.jsonl", name, mode)))
		if err != nil {
			return nil, err
		}
		tracers = append(tracers, tr)
		return tr, nil
	}
	for i := 0; i < k; i++ {
		svc, err := rpcfed.NewParticipantService(i, ds, part.Indices[i], benchNet(), seed+int64(100+i))
		if err != nil {
			return modeResult{}, err
		}
		tr, err := openTracer(fmt.Sprintf("worker%d", i))
		if err != nil {
			return modeResult{}, err
		}
		svc.SetTracer(tr)
		ln, _, err := svc.Serve("127.0.0.1:0")
		if err != nil {
			return modeResult{}, err
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}

	scfg := rpcfed.DefaultServerConfig(benchNet())
	scfg.Rounds = rounds
	scfg.BatchSize = batch
	scfg.Quorum = 1.0 // hard sync: every reply lands every round, all modes comparable
	scfg.Transport.Workers = 1
	scfg.Seed = seed
	scfg.Transport.Wire = mode
	scfg.Transport.TopKRatio = topkRatio
	scfg.Transport.TopKGradRatio = topkGradRatio
	srv, err := rpcfed.NewServer(scfg, addrs)
	if err != nil {
		return modeResult{}, err
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	serverTracer, err := openTracer("server")
	if err != nil {
		return modeResult{}, err
	}
	srv.SetTelemetry(serverTracer, reg)

	start := time.Now()
	res, err := srv.Run()
	if err != nil {
		return modeResult{}, err
	}
	elapsed := time.Since(start)
	// Tear the cluster down before the tracers close so every in-flight
	// worker span is flushed into its file.
	srv.Close()
	closeCluster()

	wm := telemetry.NewWireMetrics(reg) // same handles SetTelemetry registered
	sent, recv := wm.BytesSent.Value(), wm.BytesReceived.Value()
	out := modeResult{
		Mode:              mode.String(),
		Rounds:            rounds,
		BytesSentTotal:    sent,
		BytesRecvTotal:    recv,
		BytesPerRound:     (sent + recv) / int64(rounds),
		MessagesTotal:     wm.MessagesSent.Value() + wm.MessagesReceived.Value(),
		MsPerRound:        elapsed.Seconds() * 1e3 / float64(rounds),
		EncodeMsTotal:     float64(wm.EncodeNs.Value()) / 1e6,
		DecodeMsTotal:     float64(wm.DecodeNs.Value()) / 1e6,
		ThetaHash:         thetaHash(srv),
		FinalAccuracy:     res.Curve.TailMean(2),
		FreshReplies:      res.FreshReplies,
		DroppedReplies:    res.DroppedReplies,
		GenotypeAvailable: res.Genotype.String() != "",
	}
	return out, nil
}

// thetaHash fingerprints the server's final supernet parameters down to the
// bit.
func thetaHash(s *rpcfed.Server) string {
	return fmt.Sprintf("%016x", nn.ParamHash(s.Supernet().Params()))
}
