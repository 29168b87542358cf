package rpcfed

import (
	"bufio"
	"fmt"
	"net"
	"net/rpc"
	"runtime"
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

	// mu is held for a whole step: it guards part and slot.
	mu   sync.Mutex
	ds   *data.Dataset
	part *fed.Participant

	// pool lends this process's replicas of netCfg (see replicaPool); slot
	// holds the step's reusable buffers. net/rpc encodes a reply after Train
	// returns, possibly while the next call already trains into the slot, so
	// a reply copies its gradients out into a buffer from the free list
	// grads, which the binary codec hands back once the reply is encoded.
	pool  *replicaPool
	slot  fed.Slot
	grads chan [][]float64

	// setMu guards the settings below and curSpan, so reading them never
	// waits for a step.
	setMu sync.Mutex

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
}

// NewParticipantService constructs a participant over a shard of ds whose
// private stream (batch shuffles, augmentation) is seeded with seed.
func NewParticipantService(id int, ds *data.Dataset, indices []int, netCfg nas.Config, seed int64) (*ParticipantService, error) {
	part, err := fed.NewParticipant(id, indices, seed)
	if err != nil {
		return nil, fmt.Errorf("rpcfed: %w", err)
	}
	return &ParticipantService{
		id:     id,
		netCfg: netCfg,
		ds:     ds,
		part:   part,
		pool:   poolFor(netCfg),
		grads:  make(chan [][]float64, runtime.GOMAXPROCS(0)),
	}, nil
}

// SetDelay injects an artificial per-call delay (straggler simulation).
func (p *ParticipantService) SetDelay(d time.Duration) {
	p.setMu.Lock()
	defer p.setMu.Unlock()
	p.delay = d
}

// Hello implements the registration handshake.
func (p *ParticipantService) Hello(_ *HelloRequest, reply *HelloReply) error {
	reply.ParticipantID = p.id
	reply.NumSamples = p.part.NumSamples
	return nil
}

// replicaPool lends the replicas of one network structure to the
// participants this process hosts. A replica is needed only while a step
// runs, and it holds the buffers of one step (about 5 MB for the rpc
// benchmark network at batch 8, against a few hundred KB of sub-model), so
// the pool lends up to one per core and co-located participants train
// concurrently. It builds a replica only when every built one is lent out
// and lends the most recently returned first, so a process whose steps never
// overlap — a deployment runs one participant per process — builds one.
type replicaPool struct {
	lent chan struct{} // one token per lent replica; capacity GOMAXPROCS
	mu   sync.Mutex
	free []*fed.Replica
}

var replicas sync.Map // fmt "%+v" of the nas.Config → *replicaPool

// poolFor returns the process's replica pool for networks shaped like cfg.
func poolFor(cfg nas.Config) *replicaPool {
	v, _ := replicas.LoadOrStore(fmt.Sprintf("%+v", cfg),
		&replicaPool{lent: make(chan struct{}, runtime.GOMAXPROCS(0))})
	return v.(*replicaPool)
}

// get waits until fewer than cap(lent) replicas are lent and returns a free
// one, or nil when the caller must build it.
func (rp *replicaPool) get() *fed.Replica {
	rp.lent <- struct{}{}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	n := len(rp.free)
	if n == 0 {
		return nil
	}
	rep := rp.free[n-1]
	rp.free = rp.free[:n-1]
	return rep
}

// put hands back what get lent (nil when the build failed).
func (rp *replicaPool) put(rep *fed.Replica) {
	if rep != nil {
		rp.mu.Lock()
		rp.free = append(rp.free, rep)
		rp.mu.Unlock()
	}
	<-rp.lent
}

// straggle is a call's prologue: it records the request's trace context and
// sleeps out any injected straggler delay.
func (p *ParticipantService) straggle(span wire.SpanContext) *telemetry.Tracer {
	p.setMu.Lock()
	delay, tracer := p.delay, p.tracer
	p.curSpan = span
	p.setMu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return tracer
}

// acquireReplica checks a request's gates and batch size, then borrows a
// replica from the process's pool — building it when none is free, so
// enrolling a participant costs no model — and returns it with the
// sub-model's parameters. It waits only while every replica the pool allows
// is training. A replica's weights are overwritten before every step, so it
// is seeded from its own constant source and never draws from a
// participant's stream. Hand it back with releaseReplica. Callers take p.mu
// only after it returns, so no call waits for a replica while holding a
// participant's lock.
func (p *ParticipantService) acquireReplica(g nas.Gates, batchSize int) (*fed.Replica, []*nn.Param, error) {
	if batchSize <= 0 {
		return nil, nil, fmt.Errorf("rpcfed: batch size %d", batchSize)
	}
	if err := p.netCfg.CheckGates(g); err != nil {
		return nil, nil, fmt.Errorf("rpcfed: %w", err)
	}
	rep := p.pool.get()
	if rep == nil {
		var err error
		if rep, err = fed.NewReplica(0, p.netCfg); err != nil {
			p.pool.put(nil)
			return nil, nil, fmt.Errorf("rpcfed: participant %d: %w", p.id, err)
		}
	}
	return rep, rep.Sampled(g), nil
}

func (p *ParticipantService) releaseReplica(rep *fed.Replica) { p.pool.put(rep) }

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
	if err := loadWeights(params, req.Weights); err != nil {
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
	var buf [][]float64
	select {
	case buf = <-p.grads:
	default:
	}
	reply.Grads = resized(buf, len(grads))
	for i, gr := range grads {
		reply.Grads[i] = append(reply.Grads[i][:0], gr.Data()...)
	}
	return nil
}

// SetWireMetrics attaches wire-codec counters (bytes, encode/decode ns)
// to every connection accepted after the call. Pass a bundle from
// telemetry.NewWireMetrics; the default is unobserved.
func (p *ParticipantService) SetWireMetrics(met telemetry.WireMetrics) {
	p.setMu.Lock()
	defer p.setMu.Unlock()
	p.wireMet = met
}

// SetTracer attaches a worker-side span tracer. Connections accepted after
// the call emit worker.decode/worker.encode codec spans, and Train emits a
// worker.train span, all parented under the server round span carried in
// each request. A nil tracer (the default) disables worker spans.
func (p *ParticipantService) SetTracer(t *telemetry.Tracer) {
	p.setMu.Lock()
	defer p.setMu.Unlock()
	p.tracer = t
}

// CurrentSpan snapshots the trace context of the request this participant
// is (or was most recently) training — the hook a fault injector uses to
// tag chaos.fault events with the round they disrupted.
func (p *ParticipantService) CurrentSpan() wire.SpanContext {
	p.setMu.Lock()
	defer p.setMu.Unlock()
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
	p.setMu.Lock()
	met := p.wireMet
	tracer := p.tracer
	p.setMu.Unlock()
	counted := &countingConn{Conn: conn, met: &met}
	br := bufio.NewReader(counted)
	magic, err := br.Peek(len(wirePreamble))
	if err == nil && string(magic) == wirePreamble {
		if _, err := br.Discard(len(wirePreamble)); err != nil {
			conn.Close()
			return
		}
		srv.ServeCodec(newBinaryServerCodec(sniffedConn{r: br, Conn: counted}, &met, tracer, p.grads))
		return
	}
	// Not our preamble (or the peer closed before sending 4 bytes): hand
	// the connection — with the peeked bytes replayed — to the gob codec.
	srv.ServeConn(sniffedConn{r: br, Conn: counted})
}
