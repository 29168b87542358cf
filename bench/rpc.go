package main

import (
	"math/rand"
	"net"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

const rpcK = 8

// rpcNet and rpcSpec are the supernet and the 8×8 dataset cmd/benchrpc
// uses: conv weights dominate the payload, eight participants train on one
// host in milliseconds.
func rpcNet() nas.Config {
	return nas.Config{InChannels: 3, NumClasses: 10, C: 6, Layers: 2, Nodes: 2, Candidates: nas.AllOps}
}

func rpcSpec(seed int64) data.Spec {
	return data.Spec{
		Name: "rpcbench", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: seed + 12,
	}
}

// rpcCluster is eight participant services on loopback and a server dialed
// into them, all in this process.
type rpcCluster struct {
	services  []*rpcfed.ParticipantService
	listeners []net.Listener
	done      []<-chan struct{}
	srv       *rpcfed.Server
	reg       *telemetry.Registry
	setupS    float64
	// newServerMs is the NewServer call alone (it dials every participant).
	newServerMs float64
}

func newRPCCluster(seed int64, rounds int) (*rpcCluster, error) {
	t0 := time.Now()
	c := &rpcCluster{reg: telemetry.NewRegistry()}
	ds, err := data.Generate(rpcSpec(seed))
	if err != nil {
		return nil, err
	}
	part, err := data.IIDPartition(ds.NumTrain(), rpcK, rand.New(rand.NewSource(seed+5)))
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < rpcK; i++ {
		svc, err := rpcfed.NewParticipantService(i, ds, part.Indices[i], rpcNet(), seed+int64(100+i))
		if err != nil {
			c.close()
			return nil, err
		}
		ln, done, err := svc.Serve("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.services = append(c.services, svc)
		c.listeners = append(c.listeners, ln)
		c.done = append(c.done, done)
		addrs = append(addrs, ln.Addr().String())
	}
	cfg := rpcfed.DefaultServerConfig(rpcNet())
	cfg.Rounds = rounds
	cfg.BatchSize = 8
	cfg.Quorum = 1 // hard sync: every reply lands in its round
	cfg.Transport.Workers = 1
	cfg.Transport.Wire = wire.FP64
	cfg.Seed = seed
	n0 := time.Now()
	c.srv, err = rpcfed.NewServer(cfg, addrs)
	if err != nil {
		c.close()
		return nil, err
	}
	c.newServerMs = ms(time.Since(n0).Seconds())
	c.srv.SetTelemetry(nil, c.reg)
	c.setupS = time.Since(t0).Seconds()
	return c, nil
}

// close tears the cluster down and waits for every accept loop to end.
func (c *rpcCluster) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	for _, ln := range c.listeners {
		_ = ln.Close() // a listener that is already closed has nothing left to release
	}
	for _, d := range c.done {
		<-d
	}
}

func rpcPrefix(seed int64, rounds int) (prefix, error) {
	c, err := newRPCCluster(seed, rounds)
	if err != nil {
		return prefix{}, err
	}
	defer c.close()
	res, err := c.srv.Run()
	if err != nil {
		return prefix{}, err
	}
	p := prefix{setupS: c.setupS, acc: res.Curve.TailMean(10)}
	var ok bool
	p.hash, ok = thetaHash(c.srv.Supernet().Params())
	p.allGood = ok && finite(p.acc)
	return p, nil
}

// runRPC drives the loopback federation: Server.Run for the timed rounds,
// then two determinism prefixes on fresh clusters.
func runRPC(o opts) (*result, error) {
	const kind = "rpc"
	res := newResult(kind)
	m := res.Metrics

	rounds := o.n(2000, 2)
	root := o.tr.open(kind, kind, -1)
	t0 := time.Now()
	c, err := newRPCCluster(o.seed, rounds)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o.tr.add(kind, "rpcfed.NewServer+dial", root, t0, time.Since(t0))
	m.put("rpcfed.new_server_ms", c.newServerMs, "ms")

	wm := telemetry.NewWireMetrics(c.reg) // the handles SetTelemetry registered
	calls := c.reg.Histogram("rpc_call_seconds", "")
	mem0, flops0, nanos0 := readMem(), tensor.GemmFLOPs(), tensor.GemmKernelNanos()
	start := time.Now()
	out, err := c.srv.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	o.tr.add(kind, "rpcfed.Server.Run", root, start, wall)
	mem := memSince(mem0)
	flops, nanos := tensor.GemmFLOPs()-flops0, tensor.GemmKernelNanos()-nanos0

	n := float64(out.RoundsCompleted)
	roundMs := make([]float64, len(out.RoundSeconds))
	for i, s := range out.RoundSeconds {
		roundMs[i] = ms(s)
	}
	sorted := sortedCopy(roundMs)
	m.put("rounds_per_s", n/wall.Seconds(), "1/s")
	m.putN("round_ms_p50", percentile(sorted, 0.5), "ms", len(sorted))
	m.putN("round_ms_p95", percentile(sorted, 0.95), "ms", len(sorted))
	m.putN("round_ms_p99", percentile(sorted, 0.99), "ms", len(sorted))
	m.put("timed_wall_s", wall.Seconds(), "s")
	m.put("allocs_per_round", float64(mem.mallocs)/n, "count")
	wireBytes := float64(wm.BytesSent.Value()+wm.BytesReceived.Value()) / n
	m.put("wire_bytes_per_round", wireBytes, "B")
	acc := out.Curve.TailMean(10)
	m.put("final_acc", acc, "share")

	m.put("tensor.gemm_gflops", float64(flops)/float64(nanos), "GFLOP/s")
	// Server and participants share the process, so kernel time is spread
	// over both cores.
	m.put("tensor.gemm_time_share", float64(nanos)/(wall.Seconds()*1e9*2), "share")
	m.put("go.alloc_bytes_per_round", float64(mem.bytes)/n, "B")
	m.put("go.gc_cycles", float64(mem.gcCycles), "count")
	m.put("go.gc_pause_ms_total", mem.gcPauseMs, "ms")
	m.put("rpcfed.encode_ms_per_round", float64(wm.EncodeNs.Value())/1e6/n, "ms")
	m.put("rpcfed.decode_ms_per_round", float64(wm.DecodeNs.Value())/1e6/n, "ms")
	m.putN("rpcfed.rpc_call_ms_mean", ms(calls.Sum())/float64(max(calls.N(), 1)), "ms", calls.N())
	m.put("rpcfed.messages_per_round", float64(wm.MessagesSent.Value()+wm.MessagesReceived.Value())/n, "count")

	// Every reply of every round must have been fresh: a late or dropped
	// reply under hard sync on loopback is a failure.
	want := rpcK * rounds
	res.Attempted += want
	res.Failed += want - out.FreshReplies
	hash, ok := thetaHash(c.srv.Supernet().Params())
	res.check(ok, "rpc: non-finite θ after %d rounds", rounds)
	res.checkAccuracy(o, acc)
	res.check(out.RoundsCompleted == rounds, "rpc: %d of %d rounds completed", out.RoundsCompleted, rounds)
	res.Exact["theta_hash"] = hash
	res.Exact["final_acc"] = exact(acc)
	res.Exact["wire_bytes_per_round"] = exact(wireBytes)

	o.tr.finish(root)
	m.put("peak_rss_mb", peakRSSMB(), "MB")

	// Determinism prefixes and the remaining set-ups, each on a fresh
	// cluster, after the clock and the memory high-water mark are read.
	prefixRounds := o.prefixRounds()
	a, err := rpcPrefix(o.seed, prefixRounds)
	if err != nil {
		return nil, err
	}
	b, err := rpcPrefix(o.seed, prefixRounds)
	if err != nil {
		return nil, err
	}
	res.check(a.hash == b.hash && a.acc == b.acc, "rpc: %d-round prefix not repeatable: θ %s/%s acc %v/%v", prefixRounds, a.hash, b.hash, a.acc, b.acc)
	res.check(a.allGood && b.allGood, "rpc: non-finite accuracy or θ in the prefix")
	setups := []float64{c.setupS, a.setupS, b.setupS}
	for len(setups) < setupSamples {
		extra, err := newRPCCluster(o.seed, 1)
		if err != nil {
			return nil, err
		}
		extra.close()
		setups = append(setups, extra.setupS)
	}
	m.putN("setup_s", median(setups), "s", len(setups))
	m.put("failed_share", float64(res.Failed)/float64(res.Attempted), "share")
	return res, nil
}
