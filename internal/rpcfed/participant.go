package rpcfed

import (
	"bufio"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// ParticipantService is the RPC service a federated client exposes. It owns
// a local data shard and runs Alg. 1's participant update through the one
// local step (fed.Replica.Train) on a supernet replica: per request it loads
// the shipped sub-model weights into the replica, trains, and returns reward
// plus gradients. Only the sub-model the server selected crosses the wire;
// the replica is supernet-shaped, so no call ever builds a model.
type ParticipantService struct {
	id     int
	netCfg nas.Config

	mu   sync.Mutex
	ds   *data.Dataset
	part *fed.Participant

	// replica is this process's replica slot for netCfg (see replicaSlot);
	// slot holds the step's reusable buffers, which replies copy out of and
	// never alias.
	replica chan *fed.Replica
	slot    fed.Slot

	// Delay artificially slows every call (straggler injection for soft
	// synchronization tests and demos).
	delay time.Duration

	// wireMet receives per-connection codec counters (see SetWireMetrics).
	wireMet telemetry.WireMetrics

	// tracer receives worker-side spans (worker.train plus the codec's
	// worker.decode/worker.encode); nil disables them. curSpan snapshots
	// the trace context of the request currently (or most recently)
	// training, so a chaos injector can tag faults with the active round.
	tracer  *telemetry.Tracer
	curSpan wire.SpanContext

	// Top-k transport state (see topk.go), keyed by supernet parameter
	// index: mirror is this end's copy of the server's per-participant
	// weight mirror, residual the error-feedback accumulator for gradient
	// coordinates not yet shipped. Both stay nil until a Packed request
	// arrives. idx/scratch are reusable selection buffers.
	mirror   map[int][]float64
	residual map[int][]float64
	idx      []int
	scratch  []float64
}

// NewParticipantService constructs a participant over a shard of ds whose
// private stream (batch shuffles, augmentation) is seeded with seed.
func NewParticipantService(id int, ds *data.Dataset, indices []int, netCfg nas.Config, seed int64) (*ParticipantService, error) {
	part, err := fed.NewParticipant(id, indices, seed)
	if err != nil {
		return nil, fmt.Errorf("rpcfed: %w", err)
	}
	return &ParticipantService{
		id:      id,
		netCfg:  netCfg,
		ds:      ds,
		part:    part,
		replica: replicaSlot(netCfg),
	}, nil
}

// SetDelay injects an artificial per-call delay (straggler simulation).
func (p *ParticipantService) SetDelay(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay = d
}

// Hello implements the registration handshake.
func (p *ParticipantService) Hello(_ *HelloRequest, reply *HelloReply) error {
	reply.ParticipantID = p.id
	reply.NumSamples = p.part.NumSamples
	return nil
}

// replicas holds one slot per network structure for every participant this
// process hosts. A replica is needed only while a step runs, and it keeps
// activation buffers for every candidate op on every edge — about 16 MB for
// the rpc benchmark network at batch 8, against a few hundred KB of
// sub-model — so co-located participants take turns on one rather than
// holding one each. A deployment runs one participant per process, where
// the slot is simply that participant's replica.
var replicas sync.Map // fmt "%+v" of the nas.Config → chan *fed.Replica

// replicaSlot returns the process's replica slot for networks shaped like
// cfg: a one-element channel that holds the replica while it is free (nil
// until the first step builds it).
func replicaSlot(cfg nas.Config) chan *fed.Replica {
	slot := make(chan *fed.Replica, 1)
	slot <- nil
	v, _ := replicas.LoadOrStore(fmt.Sprintf("%+v", cfg), slot)
	return v.(chan *fed.Replica)
}

// straggle is a call's prologue: it records the request's trace context and
// sleeps out any injected straggler delay.
func (p *ParticipantService) straggle(span wire.SpanContext) *telemetry.Tracer {
	p.mu.Lock()
	delay, tracer := p.delay, p.tracer
	p.curSpan = span
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return tracer
}

// acquireReplica checks a request's gates and batch size, then waits for the
// process's replica — building it on first use, so enrolling a participant
// costs no model — and returns it with the sub-model's parameters. Its
// weights are overwritten before every step, so it is seeded from its own
// constant source and never draws from a participant's stream. Hand it back
// with releaseReplica. Callers take p.mu only after it returns, so no call
// waits for the replica while holding a participant's lock.
func (p *ParticipantService) acquireReplica(g nas.Gates, batchSize int) (*fed.Replica, []*nn.Param, error) {
	if batchSize <= 0 {
		return nil, nil, fmt.Errorf("rpcfed: batch size %d", batchSize)
	}
	if err := p.netCfg.CheckGates(g); err != nil {
		return nil, nil, fmt.Errorf("rpcfed: %w", err)
	}
	rep := <-p.replica
	if rep == nil {
		var err error
		if rep, err = fed.NewReplica(0, p.netCfg, p.ds, batchSize); err != nil {
			p.replica <- nil
			return nil, nil, fmt.Errorf("rpcfed: participant %d: %w", p.id, err)
		}
	}
	return rep, rep.Sampled(g), nil
}

func (p *ParticipantService) releaseReplica(rep *fed.Replica) { p.replica <- rep }

// Train implements Alg. 1's participant update (lines 37–42) over RPC.
func (p *ParticipantService) Train(req *TrainRequest, reply *TrainReply) error {
	t0 := time.Now()
	tracer := p.straggle(req.Span)
	// The span covers the whole call including any injected straggler
	// delay — that is exactly the latency the server's critical path sees.
	defer func() {
		tracer.WorkerSpan(telemetry.EventWorkerTrain, req.Span, 0, time.Since(t0).Seconds())
	}()

	g := nas.Gates{Normal: req.Normal, Reduce: req.Reduce}
	rep, params, err := p.acquireReplica(g, req.BatchSize)
	if err != nil {
		return err
	}
	defer p.releaseReplica(rep)
	p.mu.Lock()
	defer p.mu.Unlock()
	topk := len(req.Packed) > 0
	if topk {
		if len(req.ParamIDs) != len(params) {
			return fmt.Errorf("rpcfed: %d param ids, want %d", len(req.ParamIDs), len(params))
		}
		// Apply the server's weight payload onto the local mirrors: dense
		// tensors resync, tag-4 entries advance the mirror by exactly what
		// the server's copy advanced. A delta for a parameter we have no
		// (right-sized) mirror for — e.g. after a restart wiped our state
		// while the server kept believing it — decodes against a nil base
		// and errors out; the failed call invalidates the server's mirror
		// and the next round resyncs dense.
		base := make([][]float64, len(params))
		for i, id := range req.ParamIDs {
			if m := p.mirror[id]; len(m) == params[i].Value.Size() {
				base[i] = m
			}
		}
		if _, err := wire.DecodeGroupDelta(req.Packed, base); err != nil {
			return fmt.Errorf("rpcfed: apply weight delta: %w", err)
		}
		if p.mirror == nil {
			p.mirror = make(map[int][]float64)
			p.residual = make(map[int][]float64)
		}
		if err := loadWeights(params, base); err != nil {
			return err
		}
		for i, id := range req.ParamIDs {
			p.mirror[id] = base[i]
		}
	} else if err := loadWeights(params, req.Weights); err != nil {
		return err
	}

	if err := rep.Train(p.ds, p.part, fed.Step{Gates: g, BatchSize: req.BatchSize, Augment: data.DefaultAugment()}, &p.slot); err != nil {
		return err
	}
	grads := p.slot.Grads
	reply.Round = req.Round
	reply.ParticipantID = p.id
	reply.Reward = p.slot.Acc
	reply.Loss = p.slot.Loss
	if topk {
		// Error-feedback sparsification: ship the top-k coordinates of
		// gradient + residual, carry everything dropped into the next
		// round's residual for this parameter.
		ratio := req.TopKRatio
		if ratio <= 0 || ratio > 1 {
			ratio = defaultTopKGradRatio
		}
		packed := wire.AppendGroupHeader(nil, len(grads))
		for i, gr := range grads {
			g := gr.Data()
			id := req.ParamIDs[i]
			res := p.residual[id]
			if len(res) != len(g) {
				res = make([]float64, len(g))
				p.residual[id] = res
			}
			if cap(p.scratch) < len(g) {
				p.scratch = make([]float64, len(g))
			}
			u := p.scratch[:len(g)]
			for j := range g {
				u[j] = g[j] + res[j]
			}
			k := wire.TopKCount(len(u), ratio)
			p.idx = wire.TopKIndices(u, k, p.idx)
			packed = wire.AppendTensorTopK(packed, u, p.idx)
			copy(res, u)
			for _, j := range p.idx {
				res[j] = 0
			}
		}
		reply.Packed = packed
		return nil
	}
	// net/rpc encodes the reply after Train returns, possibly while the next
	// call already trains into the slot: the reply gets its own copy.
	reply.Grads = make([][]float64, len(grads))
	for i, gr := range grads {
		reply.Grads[i] = append([]float64(nil), gr.Data()...)
	}
	return nil
}

// SetWireMetrics attaches wire-codec counters (bytes, encode/decode ns)
// to every connection accepted after the call. Pass a bundle from
// telemetry.NewWireMetrics; the default is unobserved.
func (p *ParticipantService) SetWireMetrics(met telemetry.WireMetrics) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wireMet = met
}

// SetTracer attaches a worker-side span tracer. Connections accepted after
// the call emit worker.decode/worker.encode codec spans, and Train emits a
// worker.train span, all parented under the server round span carried in
// each request. A nil tracer (the default) disables worker spans.
func (p *ParticipantService) SetTracer(t *telemetry.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

// CurrentSpan snapshots the trace context of the request this participant
// is (or was most recently) training — the hook a fault injector uses to
// tag chaos.fault events with the round they disrupted.
func (p *ParticipantService) CurrentSpan() wire.SpanContext {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.curSpan
}

// Serve registers the service under a unique name and accepts connections
// on a fresh TCP listener until the listener is closed. Each connection's
// first bytes are sniffed: clients that sent the binary-protocol preamble
// get the binary server codec, everything else falls back to stock gob —
// so mixed-mode clients (and older servers) coexist on one listener. It
// returns the listener (for its address and for shutdown) and a done
// channel closed when the accept loop exits.
func (p *ParticipantService) Serve(addr string) (net.Listener, <-chan struct{}, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("rpcfed: listen: %w", err)
	}
	done, err := p.ServeListener(ln)
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	return ln, done, nil
}

// ServeListener is Serve over a caller-supplied listener — e.g. one wrapped
// by a fault injector (internal/chaos) or a custom transport. Closing the
// listener stops the accept loop and closes the returned channel.
func (p *ParticipantService) ServeListener(ln net.Listener) (<-chan struct{}, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Participant", p); err != nil {
		return nil, fmt.Errorf("rpcfed: register: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go p.serveConn(srv, conn)
		}
	}()
	return done, nil
}

// serveConn sniffs one connection's protocol and serves it to completion.
func (p *ParticipantService) serveConn(srv *rpc.Server, conn net.Conn) {
	p.mu.Lock()
	met := p.wireMet
	tracer := p.tracer
	p.mu.Unlock()
	counted := &countingConn{Conn: conn, met: &met}
	br := bufio.NewReader(counted)
	magic, err := br.Peek(len(wirePreamble))
	if err == nil && string(magic) == wirePreamble {
		if _, err := br.Discard(len(wirePreamble)); err != nil {
			conn.Close()
			return
		}
		srv.ServeCodec(newBinaryServerCodec(sniffedConn{r: br, Conn: counted}, &met, tracer))
		return
	}
	// Not our preamble (or the peer closed before sending 4 bytes): hand
	// the connection — with the peeked bytes replayed — to the gob codec.
	srv.ServeConn(sniffedConn{r: br, Conn: counted})
}
