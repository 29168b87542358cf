package rpcfed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"testing"
	"time"

	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// A steady-state round over loopback — eight participants, the fp64 codec,
// hard sync — allocates only what net/rpc and the runtime need per call:
// every payload crosses each hop into storage that is reused (the peer's
// request and reply, the participant's request storage and reply gradients,
// the core's snapshot). The count covers both ends, since the participants
// run in this process. It was ~2,900 when every hop copied into fresh
// slices.
func TestServerRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	const k = 8
	addrs, _, stop := startCluster(t, k, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.BatchSize = 8
	cfg.Quorum = 1
	cfg.Strategy = staleness.Hard
	cfg.Transport.Wire = wire.FP64
	cfg.Transport.Workers = 1
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	round := 0
	step := func() {
		rep, err := s.core.Step(ctx, round, true, true)
		if err != nil || rep.Fresh != k {
			t.Fatalf("round %d: %d fresh replies, err %v", round, rep.Fresh, err)
		}
		round++
	}
	// Warm-up: every buffer on both ends grows to the largest sub-model
	// the gate stream draws.
	for range 60 {
		step()
	}
	allocs := testing.AllocsPerRun(100, step)
	const pinned = 102
	t.Logf("steady-state rpc round: %.0f allocs", allocs)
	if allocs > pinned+5 {
		t.Errorf("a loopback round allocates %.0f objects, pinned at %d (+5)", allocs, pinned)
	}
}

// stalling trains honestly, then holds one round's answer until release
// closes — past the server's per-call deadline, which abandons the call — or,
// with no release channel, refuses that call with an error instead.
// answered closes when the held call returns.
type stalling struct {
	inner    *ParticipantService
	round    int
	release  chan struct{}
	answered chan struct{}
}

func (s *stalling) Train(req *TrainRequest, reply *TrainReply) error {
	if err := s.inner.Train(req, reply); err != nil || req.Round != s.round {
		return err
	}
	defer close(s.answered)
	if s.release == nil {
		return errors.New("refused")
	}
	<-s.release
	return nil
}

// serveBinary serves rcvr as "Participant" over the binary codec, handing
// encoded reply gradients back to grads as ParticipantService.Serve does.
func serveBinary(t *testing.T, rcvr any, grads chan [][]float64) string {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Participant", rcvr); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func() {
				preamble := make([]byte, len(wirePreamble))
				if _, err := io.ReadFull(conn, preamble); err != nil {
					conn.Close()
					return
				}
				met := telemetry.NewDisabledWireMetrics()
				srv.ServeCodec(newBinaryServerCodec(conn, &met, nil, grads))
			}()
		}
	}()
	return ln.Addr().String()
}

// A call the deadline abandons leaves its reply object behind, and the
// participant's late answer still lands in it, rounds later. The peer
// decodes its following calls into a fresh reply, so those rounds merge
// exactly what they would had the participant refused the call outright:
// the final θ and the accuracy curve match to the bit. Were the abandoned
// reply reused, net/rpc's late write into it would race a later call's
// decode, which -race reports.
func TestLateAnswerIntoAbandonedReplyLeavesLaterRoundsIntact(t *testing.T) {
	const stalled, answer, rounds = 1, 4, 10
	run := func(late bool) (uint64, string) {
		addrs, services, stop := startCluster(t, 3, nil)
		defer stop()
		stall := &stalling{inner: services[2], round: stalled, answered: make(chan struct{})}
		if late {
			stall.release = make(chan struct{})
		}
		addrs[2] = serveBinary(t, stall, services[2].grads)
		cfg := DefaultServerConfig(testNet())
		cfg.BatchSize = 8
		cfg.Quorum = 1
		cfg.Strategy = staleness.Hard
		cfg.Transport.Wire = wire.FP64
		// The held call expires inside its round, which then closes
		// without it: the peer is dispatched again in the next one.
		cfg.Transport.CallTimeout = time.Second
		cfg.RoundTimeout = 1200 * time.Millisecond
		s, err := NewServer(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var curve []float64
		fresh, dropped := 0, 0
		for r := 0; r < rounds; r++ {
			if r == answer && late {
				// The late answer goes out on the connection before any
				// later call's, so net/rpc decodes it before this round's.
				close(stall.release)
				<-stall.answered
			}
			rep, err := s.core.Step(context.Background(), r, true, true)
			if err != nil {
				t.Fatal(err)
			}
			curve = append(curve, rep.FreshAccuracy)
			fresh, dropped = fresh+rep.Fresh, dropped+rep.Dropped
		}
		if fresh != 3*rounds-1 || dropped != 1 {
			t.Fatalf("late=%v: %d fresh, %d dropped replies; want every call but round %d's held one",
				late, fresh, dropped, stalled)
		}
		return thetaHashOf(s), fmt.Sprint(curve)
	}
	refusedTheta, refusedCurve := run(false)
	lateTheta, lateCurve := run(true)
	if lateTheta != refusedTheta || lateCurve != refusedCurve {
		t.Errorf("an answer into an abandoned reply moved later rounds: θ %#x vs %#x, curve\n%s\nvs\n%s",
			lateTheta, refusedTheta, lateCurve, refusedCurve)
	}
}

// rwBuffer is an in-memory connection for driving a codec directly.
type rwBuffer struct{ bytes.Buffer }

func (*rwBuffer) Close() error { return nil }

// Reply gradients return to the participant's free list only once the codec
// has encoded them. Two calls whose replies are both still unencoded — as
// when they overlap — train into distinct storage; after the first reply is
// encoded, the next call reuses its storage and leaves the second intact.
func TestReplyGradsRecycledOnlyAfterEncode(t *testing.T) {
	ds := testDataset(t)
	svc, err := NewParticipantService(0, ds, shardOf(24), testNet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	req := trainRequestForTest(t)
	var first, second, third TrainReply
	train := func(reply *TrainReply) [][]float64 {
		if err := svc.Train(req, reply); err != nil {
			t.Fatal(err)
		}
		return flattenGroup(reply.Grads)
	}
	firstWant := train(&first)
	secondWant := train(&second)
	if !sameBits(first.Grads, firstWant) {
		t.Fatal("a second call trained into the first, unencoded reply")
	}
	met := telemetry.NewDisabledWireMetrics()
	codec := newBinaryServerCodec(&rwBuffer{}, &met, nil, svc.grads)
	if err := codec.WriteResponse(&rpc.Response{ServiceMethod: trainMethod, Seq: 1}, &first); err != nil {
		t.Fatal(err)
	}
	train(&third)
	if &third.Grads[0][0] != &first.Grads[0][0] {
		t.Error("the call after an encoded reply did not reuse its gradient storage")
	}
	if !sameBits(second.Grads, secondWant) {
		t.Error("recycling the first reply overwrote the second, unencoded one")
	}
}

// flattenGroup deep-copies a gradient group.
func flattenGroup(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	for i := range g {
		out[i] = append([]float64(nil), g[i]...)
	}
	return out
}
