package rpcfed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// dialTest connects a client to addr in the given wire mode with its own
// metrics bundle, so tests can compare byte counts per mode.
func dialTest(t *testing.T, addr string, mode wire.Mode) (*rpc.Client, *telemetry.WireMetrics) {
	t.Helper()
	met := telemetry.NewWireMetrics(telemetry.NewRegistry())
	client, err := dialParticipant(addr, mode, &met, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return client, &met
}

func TestCodecTrainRoundTripAllModes(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()

	var fp64Grads [][]float64
	for _, mode := range []wire.Mode{wire.Gob, wire.FP64, wire.FP32} {
		client, met := dialTest(t, addrs[0], mode)

		// Hello exercises the gob-blob fallback inside the binary envelope.
		var hello HelloReply
		if err := client.Call("Participant.Hello", &HelloRequest{}, &hello); err != nil {
			t.Fatalf("%v: Hello: %v", mode, err)
		}
		if hello.ParticipantID != 0 || hello.NumSamples <= 0 {
			t.Fatalf("%v: bad Hello reply %+v", mode, hello)
		}

		// Train exercises the typed tensor path with a real payload.
		req := trainRequestForTest(t)
		var reply TrainReply
		if err := client.Call("Participant.Train", req, &reply); err != nil {
			t.Fatalf("%v: Train: %v", mode, err)
		}
		if reply.Round != req.Round || reply.ParticipantID != 0 {
			t.Fatalf("%v: bad reply header %+v", mode, reply)
		}
		if len(reply.Grads) != len(req.Weights) {
			t.Fatalf("%v: %d grad tensors, want %d", mode, len(reply.Grads), len(req.Weights))
		}
		for i := range reply.Grads {
			if len(reply.Grads[i]) != len(req.Weights[i]) {
				t.Fatalf("%v: grad %d length %d, want %d", mode, i, len(reply.Grads[i]), len(req.Weights[i]))
			}
		}
		// All four modes hit one shared participant whose batcher advances
		// between calls, so only shapes are comparable here; bit-identity
		// across modes runs on fresh clusters in TestWireModeBitIdentity.
		if mode == wire.FP64 {
			fp64Grads = reply.Grads
		}
		if met.MessagesSent.Value() < 2 || met.MessagesReceived.Value() < 2 {
			t.Fatalf("%v: message counters not ticking: %d/%d", mode,
				met.MessagesSent.Value(), met.MessagesReceived.Value())
		}
		if met.BytesSent.Value() <= 0 || met.BytesReceived.Value() <= 0 {
			t.Fatalf("%v: byte counters not ticking", mode)
		}
		if mode != wire.Gob && (met.EncodeNs.Value() <= 0 || met.DecodeNs.Value() <= 0) {
			t.Fatalf("%v: codec timers not ticking", mode)
		}
		client.Close()
	}
	if fp64Grads == nil {
		t.Fatal("fp64 pass did not run")
	}
}

// trainRequestForTest builds a valid TrainRequest the way the server does:
// all-first-candidate gates over a fresh supernet of the test config.
func trainRequestForTest(t *testing.T) *TrainRequest {
	t.Helper()
	net, err := nas.NewSupernet(rand.New(rand.NewSource(3)), testNet())
	if err != nil {
		t.Fatal(err)
	}
	nE, rE := net.ArchSpace()
	g := nas.Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
	return &TrainRequest{
		Round: 0, Normal: g.Normal, Reduce: g.Reduce,
		Weights: flattenValues(net.SampledParams(g)), BatchSize: 8,
	}
}

func TestCodecPropagatesServerError(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()
	for _, mode := range []wire.Mode{wire.Gob, wire.FP64} {
		client, _ := dialTest(t, addrs[0], mode)
		req := trainRequestForTest(t)
		req.BatchSize = 0
		var reply TrainReply
		err := client.Call("Participant.Train", req, &reply)
		if err == nil || !strings.Contains(err.Error(), "batch size") {
			t.Fatalf("%v: want batch-size error, got %v", mode, err)
		}
		// The connection must survive an application error.
		var hello HelloReply
		if err := client.Call("Participant.Hello", &HelloRequest{}, &hello); err != nil {
			t.Fatalf("%v: connection dead after app error: %v", mode, err)
		}
		client.Close()
	}
}

func TestMixedCodecClientsOnOneListener(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()

	gobClient, err := rpc.Dial("tcp", addrs[0]) // stock net/rpc client
	if err != nil {
		t.Fatal(err)
	}
	defer gobClient.Close()
	binClient, _ := dialTest(t, addrs[0], wire.FP32)
	defer binClient.Close()

	for name, c := range map[string]*rpc.Client{"gob": gobClient, "binary": binClient} {
		var hello HelloReply
		if err := c.Call("Participant.Hello", &HelloRequest{}, &hello); err != nil {
			t.Fatalf("%s client on shared listener: %v", name, err)
		}
	}
}

func TestFP32PayloadSmallerThanGob(t *testing.T) {
	addrs, _, stop := startCluster(t, 1, nil)
	defer stop()
	bytesFor := func(mode wire.Mode) int64 {
		client, met := dialTest(t, addrs[0], mode)
		defer client.Close()
		var reply TrainReply
		if err := client.Call("Participant.Train", trainRequestForTest(t), &reply); err != nil {
			t.Fatal(err)
		}
		return met.BytesSent.Value() + met.BytesReceived.Value()
	}
	gob, fp32 := bytesFor(wire.Gob), bytesFor(wire.FP32)
	// On this deliberately tiny test net, zero/one-valued BatchNorm params
	// let gob's trailing-zero trimming look unusually good, so only strict
	// reduction is asserted here.
	if fp32 >= gob {
		t.Errorf("fp32 moved %d bytes, gob %d — binary fp32 should be smaller", fp32, gob)
	}
}

// TestEnvelopeGoldenBytes freezes the message envelope layout.
func TestEnvelopeGoldenBytes(t *testing.T) {
	buf, err := appendFrameHeader(nil, wire.FP32, "Participant.Train", 7, "boom", wire.SpanContext{}, bodyTrainReply)
	if err != nil {
		t.Fatal(err)
	}
	buf = finishFrame(buf, 0)

	want := new(bytes.Buffer)
	lenExpect := 1 + 1 + 1 + len("Participant.Train") + 8 + 2 + len("boom") + 1
	binary.Write(want, binary.LittleEndian, uint32(lenExpect))
	want.WriteByte(wireVersion)
	want.WriteByte(byte(wire.FP32))
	want.WriteByte(byte(len("Participant.Train")))
	want.WriteString("Participant.Train")
	binary.Write(want, binary.LittleEndian, uint64(7))
	binary.Write(want, binary.LittleEndian, uint16(len("boom")))
	want.WriteString("boom")
	want.WriteByte(bodyTrainReply)

	if !bytes.Equal(buf, want.Bytes()) {
		t.Fatalf("envelope drifted from golden bytes:\n got %x\nwant %x", buf, want.Bytes())
	}

	r := wire.NewReader(buf[4:])
	h, err := parseFrameHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if h.mode != wire.FP32 || h.method != "Participant.Train" || h.seq != 7 ||
		h.errStr != "boom" || h.kind != bodyTrainReply {
		t.Fatalf("parsed header %+v does not match what was written", h)
	}
}

// TestRetiredFedAvgBodyKindsRejected: body kinds 4 and 5 carried the
// removed FedAvg request and reply. They stay reserved, and a frame carrying
// either must fail as an unknown kind rather than decode into anything.
func TestRetiredFedAvgBodyKindsRejected(t *testing.T) {
	for _, kind := range []byte{4, 5} {
		frame, err := appendFrameHeader(nil, wire.FP64, "Participant.Train", 1, "", wire.SpanContext{}, kind)
		if err != nil {
			t.Fatal(err)
		}
		frame = finishFrame(frame, 0)
		r := wire.NewReader(frame[4:])
		h, err := parseFrameHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unknown body kind %d", kind)
		for _, dst := range []any{&TrainRequest{}, &TrainReply{}} {
			if err := decodeBody(r, h.kind, h.mode, dst); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("kind-%d frame into %T: err = %v, want %q", kind, dst, err, want)
			}
		}
	}
}

func TestGateIntsRejectOutOfRange(t *testing.T) {
	if _, err := appendGateInts(nil, []int{70000}); err == nil {
		t.Fatal("gate index 70000 accepted")
	}
	if _, err := appendGateInts(nil, []int{-1}); err == nil {
		t.Fatal("negative gate index accepted")
	}
}

// FuzzParseFrame throws arbitrary bytes at the envelope parser and the
// typed body decoders: they must reject garbage with an error, never
// panic.
func FuzzParseFrame(f *testing.F) {
	seed, _ := appendFrameHeader(nil, wire.FP64, "Participant.Train", 1, "", wire.SpanContext{}, bodyTrainRequest)
	seed, _ = appendTrainRequest(seed, wire.FP64, &TrainRequest{
		Round: 0, Normal: []int{0}, Reduce: []int{1},
		Weights: [][]float64{{1, 2}}, BatchSize: 4,
	})
	f.Add(seed[4:])
	f.Add([]byte{wireVersion, 9, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		r := wire.NewReader(frame)
		h, err := parseFrameHeader(r)
		if err != nil {
			return
		}
		switch h.kind {
		case bodyTrainRequest:
			_ = decodeBody(r, h.kind, h.mode, &TrainRequest{})
		case bodyTrainReply:
			_ = decodeBody(r, h.kind, h.mode, &TrainReply{})
		}
	})
}

// thetaHashOf fingerprints the server's final supernet parameters down to
// the bit.
func thetaHashOf(s *Server) uint64 { return nn.ParamHash(s.net.Params()) }

// runSearchWithMode runs a short hard-sync search over a fresh cluster in
// the given wire mode and returns the bit-exact final θ hash.
func runSearchWithMode(t *testing.T, mode wire.Mode) uint64 {
	t.Helper()
	addrs, _, stop := startCluster(t, 3, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 4
	cfg.Quorum = 1.0
	cfg.Transport.Wire = mode
	cfg.Seed = 21
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return thetaHashOf(s)
}

// TestWireModeBitIdentity is the regression pin for the -wire fp64
// guarantee: the binary lossless mode must land on the exact same final
// parameters as the gob baseline, while fp32 (lossy by construction) must
// not — if fp32 ever matched, the mode plumbing would be broken.
func TestWireModeBitIdentity(t *testing.T) {
	gob := runSearchWithMode(t, wire.Gob)
	fp64 := runSearchWithMode(t, wire.FP64)
	fp32 := runSearchWithMode(t, wire.FP32)
	if fp64 != gob {
		t.Errorf("fp64 hash %#x != gob hash %#x — lossless mode drifted", fp64, gob)
	}
	if fp32 == gob {
		t.Errorf("fp32 hash equals gob hash %#x — quantization not happening", gob)
	}
}

func TestDialRetryLateBindingListener(t *testing.T) {
	// Reserve a port, release it, then bring the participant up on it only
	// after the server has started dialing.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ds := testDataset(t)
	errCh := make(chan error, 1)
	var lateLn net.Listener
	go func() {
		time.Sleep(150 * time.Millisecond)
		svc, err := NewParticipantService(0, ds, []int{0, 1, 2, 3}, testNet(), 1)
		if err != nil {
			errCh <- err
			return
		}
		ln, _, err := svc.Serve(addr)
		if err != nil {
			errCh <- err
			return
		}
		lateLn = ln
		errCh <- nil
	}()

	cfg := DefaultServerConfig(testNet())
	cfg.Transport.DialAttempts = 10
	cfg.Transport.DialBackoff = 50 * time.Millisecond
	s, err := NewServer(cfg, []string{addr})
	if err != nil {
		t.Fatalf("dial retry did not survive a late-binding listener: %v", err)
	}
	s.Close()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if lateLn != nil {
		lateLn.Close()
	}
}

func TestDialNoRetryFailsFast(t *testing.T) {
	met := telemetry.NewDisabledWireMetrics()
	start := time.Now()
	_, err := dialParticipant("127.0.0.1:1", wire.FP64, &met, 1, time.Second)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("single-attempt dial took %v (backoff applied before first try?)", elapsed)
	}
}
