package rpcfed

import (
	"math/rand"
	"net"
	"net/rpc"
	"testing"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
)

func testNet() nas.Config {
	return nas.Config{
		InChannels: 2, NumClasses: 4, C: 3, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
}

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	spec := data.Spec{
		Name: "rpct", NumClasses: 4, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 24, TestPerClass: 6, Noise: 1.0, Confusion: 0.3, Seed: 13,
	}
	ds, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// startCluster launches k participant RPC servers on loopback and returns
// their addresses plus a shutdown func.
func startCluster(t *testing.T, k int, slow map[int]time.Duration) ([]string, []*ParticipantService, func()) {
	t.Helper()
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(5))
	part, err := data.IIDPartition(ds.NumTrain(), k, rng)
	if err != nil {
		t.Fatal(err)
	}
	var (
		addrs     []string
		listeners []net.Listener
		services  []*ParticipantService
	)
	for i := 0; i < k; i++ {
		svc, err := NewParticipantService(i, ds, part.Indices[i], testNet(), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := slow[i]; ok {
			svc.SetDelay(d)
		}
		ln, _, err := svc.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		listeners = append(listeners, ln)
		services = append(services, svc)
	}
	return addrs, services, func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
	}
}

// clientOf grabs one participant's live rpc client (helper for tests that
// speak to participants directly through the server's connections).
func clientOf(s *Server, i int) *rpc.Client {
	p := s.peers[i]
	p.mu.Lock()
	c := p.client
	p.mu.Unlock()
	if c == nil {
		panic("clientOf: participant is dead")
	}
	return c
}

func TestWireHelpers(t *testing.T) {
	param := func(n int) *nn.Param { return &nn.Param{Value: tensor.New(n)} }
	two := []*nn.Param{param(2)}
	if err := loadWeights(two, [][]float64{{1, 2}}); err != nil {
		t.Errorf("valid shapes rejected: %v", err)
	}
	if got := two[0].Value.Data(); got[0] != 1 || got[1] != 2 {
		t.Errorf("loaded %v, want [1 2]", got)
	}
	if err := loadWeights(two, [][]float64{{1}}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := loadWeights([]*nn.Param{param(1), param(1)}, [][]float64{{1}}); err == nil {
		t.Error("wrong count accepted")
	}
	if err := loadWeights([]*nn.Param{param(1), param(2)}, [][]float64{{7}, {1}}); err == nil {
		t.Error("wrong length in a later tensor accepted")
	}
}

func TestServerConfigValidation(t *testing.T) {
	good := DefaultServerConfig(testNet())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*ServerConfig){
		func(c *ServerConfig) { c.Rounds = 0 },
		func(c *ServerConfig) { c.BatchSize = 0 },
		func(c *ServerConfig) { c.Quorum = 0 },
		func(c *ServerConfig) { c.Quorum = 1.5 },
		func(c *ServerConfig) { c.StalenessThreshold = -1 },
		func(c *ServerConfig) { c.Lambda = -1 },
		func(c *ServerConfig) { c.Strategy = staleness.Strategy(99) },
		func(c *ServerConfig) { c.RoundTimeout = 0 },
		func(c *ServerConfig) { c.Transport.Workers = -1 },
		func(c *ServerConfig) { c.Transport.DialAttempts = -1 },
		func(c *ServerConfig) { c.Transport.DialBackoff = -time.Second },
		func(c *ServerConfig) { c.Transport.CallTimeout = -time.Second },
	} {
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Error("expected validation error")
		}
	}
}

func TestNewServerRequiresAddrs(t *testing.T) {
	if _, err := NewServer(DefaultServerConfig(testNet()), nil); err == nil {
		t.Error("expected error for empty address list")
	}
}

func TestNewServerDialFailure(t *testing.T) {
	if _, err := NewServer(DefaultServerConfig(testNet()), []string{"127.0.0.1:1"}); err == nil {
		t.Error("expected dial error")
	}
}

func TestParticipantHelloAndTrain(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 1
	cfg.BatchSize = 8
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var hello HelloReply
	if err := clientOf(s, 0).Call("Participant.Hello", &HelloRequest{}, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.NumSamples == 0 {
		t.Error("participant reports empty shard")
	}

	g := s.ctrl.SampleGates(rand.New(rand.NewSource(1)))
	sub := s.net.SampledParams(g)
	req := &TrainRequest{
		Round: 0, Normal: g.Normal, Reduce: g.Reduce,
		Weights: flattenValues(sub), BatchSize: 8,
	}
	var reply TrainReply
	if err := clientOf(s, 0).Call("Participant.Train", req, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Grads) != len(sub) {
		t.Fatalf("reply has %d grad tensors, want %d", len(reply.Grads), len(sub))
	}
	for i, p := range sub {
		if len(reply.Grads[i]) != p.Value.Size() {
			t.Fatalf("grad %d has %d values, want %d", i, len(reply.Grads[i]), p.Value.Size())
		}
	}
	if reply.Reward < 0 || reply.Reward > 1 {
		t.Errorf("reward %v out of range", reply.Reward)
	}
}

func TestTrainRejectsBadRequest(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.ctrl.SampleGates(rand.New(rand.NewSource(1)))
	var reply TrainReply
	// zero batch
	err = clientOf(s, 0).Call("Participant.Train", &TrainRequest{
		Round: 0, Normal: g.Normal, Reduce: g.Reduce, BatchSize: 0,
	}, &reply)
	if err == nil {
		t.Error("expected error for zero batch")
	}
	// wrong weight shapes
	err = clientOf(s, 0).Call("Participant.Train", &TrainRequest{
		Round: 0, Normal: g.Normal, Reduce: g.Reduce, BatchSize: 4,
		Weights: [][]float64{{1, 2, 3}},
	}, &reply)
	if err == nil {
		t.Error("expected error for bad weights")
	}
}

func TestRPCSearchEndToEnd(t *testing.T) {
	addrs, _, stop := startCluster(t, 4, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 20
	cfg.BatchSize = 8
	cfg.Quorum = 1 // hard sync: everyone fresh
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() != cfg.Rounds {
		t.Fatalf("curve has %d points", res.Curve.Len())
	}
	if res.FreshReplies != cfg.Rounds*4 {
		t.Errorf("fresh replies %d, want %d", res.FreshReplies, cfg.Rounds*4)
	}
	if res.LateReplies != 0 {
		t.Errorf("late replies %d under hard sync", res.LateReplies)
	}
	// The search must actually train.
	if res.Curve.TailMean(5) <= 0.25 {
		t.Errorf("tail accuracy %.3f no better than chance", res.Curve.TailMean(5))
	}
}

func TestRPCSoftSyncHandlesStraggler(t *testing.T) {
	// Every participant sleeps 5 ms per call (pinning the round duration);
	// participant 3 sleeps 25 ms, a handful of rounds. With a quorum of
	// 3/4 the server closes rounds without it, and its replies arrive a
	// few rounds late — exercised through the genuine async path.
	addrs, _, stop := startCluster(t, 4, map[int]time.Duration{
		0: 5 * time.Millisecond,
		1: 5 * time.Millisecond,
		2: 5 * time.Millisecond,
		3: 25 * time.Millisecond,
	})
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 30
	cfg.BatchSize = 8
	cfg.Quorum = 0.75
	cfg.Strategy = staleness.DC
	cfg.StalenessThreshold = 8
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FreshReplies == 0 {
		t.Fatal("no fresh replies")
	}
	if res.LateReplies == 0 {
		t.Error("straggler never produced a late (delay-compensated) reply")
	}
	if res.Curve.Len() != cfg.Rounds {
		t.Errorf("curve has %d points", res.Curve.Len())
	}
}

func TestRPCThrowDiscardsLateReplies(t *testing.T) {
	addrs, _, stop := startCluster(t, 3, map[int]time.Duration{
		0: 5 * time.Millisecond,
		1: 5 * time.Millisecond,
		2: 25 * time.Millisecond,
	})
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 25
	cfg.BatchSize = 8
	cfg.Quorum = 0.67
	cfg.Strategy = staleness.Throw
	cfg.StalenessThreshold = 8
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LateReplies != 0 {
		t.Errorf("throw strategy accepted %d late replies", res.LateReplies)
	}
	if res.DroppedReplies == 0 {
		t.Error("throw strategy never dropped anything despite a straggler")
	}
}

// TestRoundTimeoutClosesRoundWithDeadParticipant is the RoundTimeout +
// lifecycle regression test: one "participant" accepts TCP connections but
// closes them immediately (a dead client whose calls fail). With quorum
// 1.0 the first rounds wait out the deadline while the lifecycle machine
// walks the peer Alive → Suspect → Dead; once it is Dead the dynamic
// quorum recomputes over the single live participant and every remaining
// round closes on its fresh reply alone — the run must NOT pay the old
// Rounds × RoundTimeout price.
func TestRoundTimeoutClosesRoundWithDeadParticipant(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()
	// Dead participant: accepts and instantly closes every connection.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	go func() {
		for {
			conn, err := dead.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 6
	cfg.BatchSize = 8
	cfg.Quorum = 1.0 // both replies required until the dead peer is demoted
	cfg.RoundTimeout = 300 * time.Millisecond
	s, err := NewServer(cfg, append(addrs, dead.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type outcome struct {
		res ServerResult
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := s.Run()
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server hung: rounds did not close at RoundTimeout")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	elapsed := time.Since(start)
	// Exactly the first two rounds wait out the deadline (the failure
	// demoting the peer to Suspect, then to Dead); afterwards the quorum
	// shrinks to the live participant and rounds close on its reply.
	const demotionRounds = deadAfterFailures
	if min := demotionRounds * cfg.RoundTimeout; elapsed < min {
		t.Errorf("run finished in %v, before the %v of demotion timeouts", elapsed, min)
	}
	if got := s.met.Timeouts.Value(); got != demotionRounds {
		t.Errorf("round_timeouts_total = %d, want %d", got, demotionRounds)
	}
	if out.res.Curve.Len() != cfg.Rounds {
		t.Errorf("curve has %d points, want %d", out.res.Curve.Len(), cfg.Rounds)
	}
	// The live participant still contributes fresh replies every round.
	if out.res.FreshReplies != cfg.Rounds {
		t.Errorf("fresh replies %d, want %d", out.res.FreshReplies, cfg.Rounds)
	}
	// The dead peer ends the run Dead, with its failed calls accounted as
	// drops in both the result façade and the registry counter.
	if got := s.peers[1].State(); got != StateDead {
		t.Errorf("dead participant ended in state %v, want %v", got, StateDead)
	}
	if out.res.DroppedReplies != demotionRounds {
		t.Errorf("dropped replies %d, want %d", out.res.DroppedReplies, demotionRounds)
	}
	if got := s.met.RepliesDropped.Value(); got != int64(out.res.DroppedReplies) {
		t.Errorf("replies_dropped_total = %d, want %d", got, out.res.DroppedReplies)
	}
	if got := s.met.RepliesFresh.Value(); got != int64(out.res.FreshReplies) {
		t.Errorf("replies_fresh_total = %d, want %d", got, out.res.FreshReplies)
	}
	if got := s.met.Rounds.Value(); got != int64(cfg.Rounds) {
		t.Errorf("rounds_total = %d, want %d", got, cfg.Rounds)
	}
}

func TestServeShutsDownOnListenerClose(t *testing.T) {
	ds := testDataset(t)
	svc, err := NewParticipantService(0, ds, []int{0, 1, 2, 3}, testNet(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, done, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		// accept loop exited cleanly
	case <-time.After(2 * time.Second):
		t.Fatal("accept loop did not exit after listener close")
	}
}
