package rpcfed

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"fedrlnas/internal/chaos"
	"fedrlnas/internal/data"
	"fedrlnas/internal/telemetry"
)

// TestNoFaultBitIdentityPinned is the RPC path's determinism pin: a
// fault-free run with this precise configuration must land on the exact
// final θ below. It was first captured before the lifecycle/dynamic-quorum
// refactor (0x87728da48c6b8b24) and moved once, when participants stopped
// drawing a throwaway model initialization from their private stream; if
// this test fails, a change moved the numerics of healthy runs.
func TestNoFaultBitIdentityPinned(t *testing.T) {
	const pinned = uint64(0xcf850b88167716d8)
	addrs, _, stop := startCluster(t, 3, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 6
	cfg.BatchSize = 8
	cfg.Quorum = 1
	cfg.Transport.Workers = 2
	cfg.Seed = 7
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := thetaHashOf(s); got != pinned {
		t.Errorf("no-fault θ hash %#x != pinned hash %#x", got, pinned)
	}
}

// TestRunContextCancelReturnsPartialResult covers the cancellable server
// API: cancelling mid-run stops the loop promptly and still hands back the
// rounds completed so far plus a derived genotype.
func TestRunContextCancelReturnsPartialResult(t *testing.T) {
	addrs, _, stop := startCluster(t, 2, map[int]time.Duration{
		0: 5 * time.Millisecond,
		1: 5 * time.Millisecond,
	})
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 1000 // far more than can complete before the cancel below
	cfg.BatchSize = 4
	cfg.Quorum = 1
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.SetTelemetry(nil, reg)

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res ServerResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.RunContext(ctx)
		done <- outcome{res, err}
	}()
	waitCounter(t, "rounds", s.met.Rounds, 3)
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
	if out.err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	if out.res.RoundsCompleted < 3 || out.res.RoundsCompleted >= cfg.Rounds {
		t.Errorf("RoundsCompleted = %d, want a partial count >= 3", out.res.RoundsCompleted)
	}
	if out.res.Curve.Len() != out.res.RoundsCompleted {
		t.Errorf("curve has %d points, want %d", out.res.Curve.Len(), out.res.RoundsCompleted)
	}
	if err := out.res.Genotype.Validate(); err != nil {
		t.Errorf("partial result genotype invalid: %v", err)
	}
}

// waitCounter polls a telemetry counter until it reaches at least want.
func waitCounter(t *testing.T, name string, c *telemetry.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s counter stuck at %d, want >= %d", name, c.Value(), want)
}

// waitState polls a peer until it reaches the wanted lifecycle state.
func waitState(t *testing.T, p *peer, want ParticipantState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("participant %d stuck in state %v, want %v", p.id, p.State(), want)
}

// TestLifecycleKillAndRecover is the tentpole's end-to-end soak in
// miniature: one participant sits behind a chaos injector and is killed
// mid-run, the server must demote it (Suspect → Dead), keep closing rounds
// over the shrunken live set, re-absorb it after the injector brings it
// back (redials_total > 0), and still finish every configured round.
func TestLifecycleKillAndRecover(t *testing.T) {
	ds := testDataset(t)
	k := 3
	part, err := data.IIDPartition(ds.NumTrain(), k, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	inj, err := chaos.New(chaos.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		svc, err := NewParticipantService(i, ds, part.Indices[i], testNet(), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		svc.SetDelay(3 * time.Millisecond)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			ln = inj.Listener(ln) // the victim
		}
		if _, err := svc.ServeListener(ln); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		closers = append(closers, func() { _ = ln.Close() })
	}

	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 200
	cfg.BatchSize = 4
	cfg.Quorum = 1
	cfg.RoundTimeout = 250 * time.Millisecond
	cfg.Transport.CallTimeout = 150 * time.Millisecond
	cfg.Transport.DialBackoff = 5 * time.Millisecond
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.SetTelemetry(nil, reg)
	inj.Observe(reg)

	type outcome struct {
		res ServerResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Run()
		done <- outcome{res, err}
	}()

	// Let the healthy cluster make progress, then kill the victim.
	waitCounter(t, "rounds", s.met.Rounds, 5)
	inj.SetDown(true)
	// The server must notice (two failed calls) and demote it to Dead.
	waitState(t, s.peers[2], StateDead)
	if got := s.ParticipantStates()[2].State; got != "dead" {
		t.Errorf("ParticipantStates reports %q, want dead", got)
	}
	// Below-quorum rounds must keep closing while the peer is gone.
	atDeath := s.met.Rounds.Value()
	waitCounter(t, "rounds", s.met.Rounds, atDeath+3)
	// Resurrect: the background redial loop must re-absorb the peer.
	inj.SetDown(false)
	waitCounter(t, "redials", s.lcMet.Redials, 1)
	waitState(t, s.peers[2], StateAlive)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("server hung under chaos")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Curve.Len() != cfg.Rounds {
		t.Errorf("curve has %d points, want %d (server must finish all rounds)",
			out.res.Curve.Len(), cfg.Rounds)
	}
	if got := s.lcMet.Redials.Value(); got < 1 {
		t.Errorf("redials_total = %d, want >= 1", got)
	}
	if got := s.lcMet.RedialAttempts.Value(); got < s.lcMet.Redials.Value() {
		t.Errorf("redial_attempts_total = %d < redials_total = %d",
			got, s.lcMet.Redials.Value())
	}
	if got := s.met.Timeouts.Value(); got < 1 {
		t.Errorf("round_timeouts_total = %d, want >= 1 (demotion rounds)", got)
	}
	if got := inj.Metrics().Kills.Value(); got < 1 {
		t.Errorf("chaos_kills_total = %d, want >= 1", got)
	}
	// The victim's outage is visible in the lifecycle gauge history: it
	// must have ended the run back at alive (0).
	if got := s.lcMet.States[2].Value(); got != float64(StateAlive) {
		t.Errorf("participant_state_2 gauge = %v, want %v", got, float64(StateAlive))
	}
}
