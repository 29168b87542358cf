// Command fedrpc deploys the federated model search across OS processes
// over TCP, the shape of the paper's Distributed-RPC deployment.
//
// Start K workers (each owns one shard of the deterministic dataset):
//
//	fedrpc worker -index 0 -k 4 -listen 127.0.0.1:7001
//	fedrpc worker -index 1 -k 4 -listen 127.0.0.1:7002
//	…
//
// Then run the search server against them:
//
//	fedrpc server -addrs 127.0.0.1:7001,127.0.0.1:7002,… -rounds 60
//
// Both sides regenerate the same dataset and Dirichlet partition from the
// shared -seed, so no data ever crosses the wire — only sub-models,
// gradients, and rewards (the paper's privacy model).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fedrlnas/internal/chaos"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// startDebug spins up the opt-in debug HTTP endpoint when addr is set.
func startDebug(addr string, reg *telemetry.Registry, extras ...telemetry.Endpoint) (*telemetry.DebugServer, error) {
	if addr == "" {
		return nil, nil
	}
	dbg, err := telemetry.StartDebugServer(addr, reg, extras...)
	if err != nil {
		return nil, err
	}
	fmt.Printf("debug endpoint on http://%s (/metrics, /healthz, /debug/pprof/)\n", dbg.Addr())
	return dbg, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedrpc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fedrpc worker|server [flags]")
	}
	switch args[0] {
	case "worker":
		return runWorker(args[1:])
	case "server":
		return runServer(args[1:])
	default:
		return fmt.Errorf("unknown mode %q (worker|server)", args[0])
	}
}

// shardFor deterministically regenerates the dataset and this worker's
// shard from the shared seed. Every process — server and all workers —
// must pass the same scenario (or none): with a scenario population the
// split honors each profile group's skew; with only a skew it overrides
// the legacy Dirichlet(0.5); both stay pure functions of (dataset, k,
// seed, scenario), so no data ever crosses the wire.
func shardFor(datasetName string, k, index int, seed int64, scen *scenario.Spec) (*data.Dataset, []int, error) {
	var spec data.Spec
	switch datasetName {
	case "cifar10s":
		spec = data.CIFAR10S()
	case "svhns":
		spec = data.SVHNS()
	case "cifar100s":
		spec = data.CIFAR100S()
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", datasetName)
	}
	ds, err := data.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	profiles, fracs, err := scen.Resolve()
	if err != nil {
		return nil, nil, err
	}
	var part data.Partition
	switch {
	case len(profiles) > 0:
		assignment := scenario.Assign(fracs, k, seed)
		part, err = scenario.PartitionFor(ds.TrainLabels, k, assignment, profiles, scen.Skew, rng)
	case scen != nil && scen.Skew != nil && scen.Skew.Kind == scenario.SkewIID:
		part, err = data.IIDPartition(ds.NumTrain(), k, rng)
	case scen != nil && scen.Skew != nil:
		part, err = data.DirichletPartition(ds.TrainLabels, k, scen.Skew.Alpha, rng)
	default:
		part, err = data.DirichletPartition(ds.TrainLabels, k, 0.5, rng)
	}
	if err != nil {
		return nil, nil, err
	}
	if index < 0 || index >= k {
		return nil, nil, fmt.Errorf("index %d outside [0,%d)", index, k)
	}
	return ds, part.Indices[index], nil
}

func netConfig(classes, channels int) search.Config {
	cfg := search.DefaultConfig()
	cfg.Net.NumClasses = classes
	cfg.Net.InChannels = channels
	return cfg
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("fedrpc worker", flag.ContinueOnError)
	var (
		index     = fs.Int("index", 0, "worker index in [0,k)")
		k         = fs.Int("k", 4, "total number of workers")
		listen    = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		dataset   = fs.String("dataset", "cifar10s", "dataset name")
		seed      = fs.Int64("seed", 1, "shared deployment seed")
		scenArg   = fs.String("scenario", "", "device-population scenario ("+scenario.Grammar+"); set the same value on every process")
		traceOut  = fs.String("trace", "", "write a JSONL span trace of handled calls to this file (spans parent under the server's rounds)")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz, expvar and pprof on this address")
		precArg   = fs.String("precision", "fp64", "compute precision: fp64 (bit-identical) or fp32 (faster SIMD path); set the same value on every process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prec, err := nn.ParsePrecision(*precArg)
	if err != nil {
		return err
	}
	nn.SetPrecision(prec)
	registry := telemetry.NewRegistry()
	dbg, err := startDebug(*debugAddr, registry)
	if err != nil {
		return err
	}
	defer dbg.Close()
	scen, err := scenario.Parse(*scenArg)
	if err != nil {
		return err
	}
	ds, shard, err := shardFor(*dataset, *k, *index, *seed, scen)
	if err != nil {
		return err
	}
	cfg := netConfig(ds.Spec.NumClasses, ds.Spec.Channels)
	svc, err := rpcfed.NewParticipantService(*index, ds, shard, cfg.Net, *seed+int64(*index)*31)
	if err != nil {
		return err
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		if tracer, err = telemetry.OpenJSONL(*traceOut); err != nil {
			return err
		}
		tracer.SetDropCounter(registry.Counter("trace_dropped_total",
			"trace events dropped after a trace-file write failure"))
		svc.SetTracer(tracer)
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedrpc: trace:", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if profiles, fracs, rerr := scen.Resolve(); rerr != nil {
		return rerr
	} else if len(profiles) > 0 {
		prof := profiles[scenario.Assign(fracs, *k, *seed)[*index]]
		ccfg, err := prof.ChaosConfig(*seed + int64(*index)*13)
		if err != nil {
			return err
		}
		if prof.Chaos != "" || len(ccfg.Trace.Mbps) > 0 {
			inj, err := chaos.New(ccfg)
			if err != nil {
				return err
			}
			inj.Observe(registry)
			// Injected faults land in the worker's trace under the round they
			// disrupted, so fedtrace can correlate kills with slow rounds.
			inj.TraceWith(tracer, svc.CurrentSpan)
			ln = inj.Listener(ln)
			fmt.Printf("worker %d: profile %q faults enabled\n", *index, prof.Name)
		}
	}
	done, err := svc.ServeListener(ln)
	if err != nil {
		_ = ln.Close()
		return err
	}
	fmt.Printf("worker %d/%d serving %s shard (%d samples) on %s\n",
		*index, *k, *dataset, len(shard), ln.Addr())
	<-done // run until the listener is closed (Ctrl-C kills the process)
	return nil
}

func runServer(args []string) error {
	fs := flag.NewFlagSet("fedrpc server", flag.ContinueOnError)
	var (
		addrList  = fs.String("addrs", "", "comma-separated worker addresses")
		dataset   = fs.String("dataset", "cifar10s", "dataset name")
		scenArg   = fs.String("scenario", "", "device-population scenario ("+scenario.Grammar+"); set the same value on every process")
		rounds    = fs.Int("rounds", 40, "search rounds")
		batch     = fs.Int("batch", 16, "participant batch size")
		quorum    = fs.Float64("quorum", 0.8, "fraction of live participants whose replies close a round")
		cohortSz  = fs.Int("cohort", 0, "participants sampled per round (0 = everyone; schedule is seeded and fault-independent)")
		shards    = fs.Int("shards", 0, "aggregation-tree shards for the θ merge (0/1 = single root; any count is bit-identical)")
		lazyDial  = fs.Bool("lazy-dial", false, "defer participant connections to first dispatch (only sampled participants ever connect)")
		workers   = fs.Int("workers", 0, "concurrent payload serializations at dispatch (0 = NumCPU)")
		wireMode  = fs.String("wire", "fp64", "payload encoding: gob|fp64|fp32|topk (fp64 = bit-identical to gob; topk = lossy error-feedback sparsification)")
		topkRatio = fs.Float64("topk-ratio", 0, "topk wire mode: fraction of weight-delta coordinates shipped downlink (0 = default 0.1)")
		topkGrad  = fs.Float64("topk-grad-ratio", 0, "topk wire mode: fraction of gradient coordinates shipped uplink (0 = default 0.025)")
		callTO    = fs.Duration("call-timeout", 10*time.Second, "per-RPC deadline, distinct from the round timeout (0 disables)")
		seed      = fs.Int64("seed", 1, "shared deployment seed")
		traceOut  = fs.String("trace", "", "write a JSONL span trace of every round to this file")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz, expvar and pprof on this address")
		precArg   = fs.String("precision", "fp64", "compute precision: fp64 (bit-identical) or fp32 (faster SIMD path); set the same value on every process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prec, err := nn.ParsePrecision(*precArg)
	if err != nil {
		return err
	}
	nn.SetPrecision(prec)
	addrs := strings.Split(*addrList, ",")
	if *addrList == "" || len(addrs) == 0 {
		return fmt.Errorf("need -addrs")
	}
	scen, err := scenario.Parse(*scenArg)
	if err != nil {
		return err
	}
	ds, _, err := shardFor(*dataset, len(addrs), 0, *seed, scen)
	if err != nil {
		return err
	}
	cfg := netConfig(ds.Spec.NumClasses, ds.Spec.Channels)
	scfg := rpcfed.DefaultServerConfig(cfg.Net)
	scfg.Rounds = *rounds
	scfg.BatchSize = *batch
	scfg.Quorum = *quorum
	scfg.CohortSize = *cohortSz
	scfg.Shards = *shards
	scfg.Transport.Workers = *workers
	scfg.Transport.CallTimeout = *callTO
	scfg.Transport.LazyDial = *lazyDial
	scfg.Transport.TopKRatio = *topkRatio
	scfg.Transport.TopKGradRatio = *topkGrad
	scfg.Seed = *seed
	if scfg.Transport.Wire, err = wire.ParseMode(*wireMode); err != nil {
		return err
	}
	srv, err := rpcfed.NewServer(scfg, addrs)
	if err != nil {
		return err
	}
	defer srv.Close()

	registry := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		if tracer, err = telemetry.OpenJSONL(*traceOut); err != nil {
			return err
		}
		tracer.SetDropCounter(registry.Counter("trace_dropped_total",
			"trace events dropped after a trace-file write failure"))
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedrpc: trace:", err)
			}
		}()
	}
	srv.SetTelemetry(tracer, registry)
	dbg, err := startDebug(*debugAddr, registry,
		telemetry.Endpoint{Path: "/participants", Handler: srv.ParticipantsHandler()})
	if err != nil {
		return err
	}
	defer dbg.Close()

	// SIGINT/SIGTERM cancel the run cooperatively: the round loop stops at
	// its next select point and hands back the partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("searching over %d workers for %d rounds (quorum %.0f%%)…\n",
		len(addrs), *rounds, *quorum*100)
	res, err := srv.RunContext(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Printf("interrupted after %d/%d rounds — partial result:\n",
			res.RoundsCompleted, *rounds)
		err = nil
	}
	if err != nil {
		return err
	}
	fmt.Println("genotype:", res.Genotype)
	fmt.Printf("accuracy tail: %.3f | replies: %d fresh, %d late, %d dropped\n",
		res.Curve.TailMean(10), res.FreshReplies, res.LateReplies, res.DroppedReplies)
	return nil
}
