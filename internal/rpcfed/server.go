package rpcfed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/controller"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/round"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

// TransportConfig groups the RPC plumbing knobs: payload encoding, dispatch
// parallelism, and connection management (startup dialing, mid-run
// redialing, per-call deadlines).
type TransportConfig struct {
	// Wire selects the tensor payload encoding (wire.FP64 default:
	// binary framing, bit-identical results; wire.Gob is the reflection
	// baseline; FP32 trades precision for half the bytes; TopK ships
	// error-feedback deltas).
	Wire wire.Mode

	// Workers caps how many participants' sub-model payloads are
	// serialized concurrently at dispatch time (the server-side hot path);
	// 0 selects runtime.NumCPU(). Dispatch order and results are
	// unaffected by the worker count.
	Workers int

	// DialAttempts bounds connection retries per participant at startup
	// (a participant racing the server to its listener is normal); 0
	// means the default. DialBackoff is the initial retry delay, doubled
	// per attempt and capped at 2s. Mid-run re-dials of dead participants
	// reuse DialBackoff with the same doubling and cap, but retry forever.
	DialAttempts int
	DialBackoff  time.Duration

	// CallTimeout bounds each individual RPC, distinct from RoundTimeout
	// which bounds a whole collect phase: a hung connection surfaces as a
	// per-call deadline (feeding the lifecycle state machine) instead of
	// silently eating the round budget. 0 disables per-call deadlines.
	CallTimeout time.Duration

	// LazyDial defers participant connections to first dispatch: NewServer
	// enrolls every address as an undialed registry stub and the call path
	// dials on demand. Combined with cohort sampling this keeps a
	// 10,000-strong enrollment from opening 10,000 sockets up front — only
	// participants that are actually sampled ever hold a connection. A
	// failed lazy dial feeds the lifecycle state machine exactly like a
	// failed call.
	LazyDial bool

	// TopKRatio is the fraction of weight-delta coordinates shipped per
	// tensor on the downlink under wire.TopK (see topk.go for the
	// error-feedback scheme); 0 selects the default (0.1). TopKGradRatio is
	// the uplink fraction for gradients, which tolerate much sharper
	// sparsification under error feedback; 0 selects the default (0.025).
	// Both ignored by every other wire mode.
	TopKRatio     float64
	TopKGradRatio float64
}

// DefaultTransportConfig returns the transport defaults.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{
		Wire:         wire.FP64,
		DialAttempts: 5,
		DialBackoff:  50 * time.Millisecond,
		CallTimeout:  10 * time.Second,
	}
}

// Validate checks the transport knobs.
func (c TransportConfig) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("rpcfed: Workers %d must be >= 0", c.Workers)
	case !c.Wire.Valid():
		return fmt.Errorf("rpcfed: invalid wire mode %d", c.Wire)
	case c.DialAttempts < 0:
		return fmt.Errorf("rpcfed: DialAttempts %d must be >= 0", c.DialAttempts)
	case c.DialBackoff < 0:
		return fmt.Errorf("rpcfed: DialBackoff must be >= 0")
	case c.CallTimeout < 0:
		return fmt.Errorf("rpcfed: CallTimeout must be >= 0")
	case c.TopKRatio < 0 || c.TopKRatio > 1:
		return fmt.Errorf("rpcfed: TopKRatio %v must be in [0, 1]", c.TopKRatio)
	case c.TopKGradRatio < 0 || c.TopKGradRatio > 1:
		return fmt.Errorf("rpcfed: TopKGradRatio %v must be in [0, 1]", c.TopKGradRatio)
	}
	return nil
}

// ServerConfig configures the RPC search server.
type ServerConfig struct {
	Net   nas.Config
	Alpha controller.Config

	Rounds    int
	BatchSize int

	ThetaLR       float64
	ThetaMomentum float64
	ThetaWD       float64
	ThetaClip     float64

	// SyncConfig carries the soft-synchronization knobs (Quorum,
	// StalenessThreshold, Lambda, Strategy) shared with the in-process
	// engine; the fields are promoted, so cfg.Quorum etc. read as before.
	staleness.SyncConfig

	// RoundTimeout bounds the wall-clock wait per round even below
	// quorum (protection against dead participants).
	RoundTimeout time.Duration

	// Transport holds the RPC plumbing knobs (wire mode, dispatch workers,
	// dial/redial policy, per-call deadline).
	Transport TransportConfig

	Seed int64
}

// DefaultServerConfig returns sensible RPC-deployment defaults.
func DefaultServerConfig(net nas.Config) ServerConfig {
	alpha := controller.DefaultConfig()
	alpha.LR = 0.3
	return ServerConfig{
		Net: net, Alpha: alpha,
		Rounds: 30, BatchSize: 16,
		ThetaLR: 0.2, ThetaMomentum: 0.9, ThetaWD: 3e-4, ThetaClip: 5,
		SyncConfig: staleness.SyncConfig{
			Quorum: 0.8, StalenessThreshold: 2, Lambda: 1, Strategy: staleness.DC,
		},
		RoundTimeout: 30 * time.Second,
		Transport:    DefaultTransportConfig(),
		Seed:         1,
	}
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("rpcfed: Rounds %d must be positive", c.Rounds)
	case c.BatchSize <= 0:
		return fmt.Errorf("rpcfed: BatchSize %d must be positive", c.BatchSize)
	case c.RoundTimeout <= 0:
		return fmt.Errorf("rpcfed: RoundTimeout must be positive")
	}
	if err := c.SyncConfig.Validate(); err != nil {
		return fmt.Errorf("rpcfed: %w", err)
	}
	return c.Transport.Validate()
}

// ServerResult summarizes an RPC search run.
type ServerResult struct {
	Genotype nas.Genotype
	// Curve is the mean fresh-reply training accuracy per round.
	Curve metrics.Curve
	// FreshReplies / LateReplies / DroppedReplies count reply handling.
	FreshReplies, LateReplies, DroppedReplies int
	// RoundsCompleted counts rounds that ran to completion; it is short of
	// the configured Rounds when RunContext was cancelled mid-run.
	RoundsCompleted int
	// RoundSeconds is the measured wall-clock per round.
	RoundSeconds []float64
}

// Server drives Alg. 1 over RPC participants: the round core
// (internal/round) owns the algorithm, and this type is its RPC transport —
// dispatch, in-flight tracking, quorum collection, peer lifecycle, top-k
// mirrors and payload decoding.
type Server struct {
	cfg  ServerConfig
	net  *nas.Supernet
	ctrl *controller.Controller
	core *round.Core

	// reg owns the participant roster; peers aliases its slice so the
	// lifecycle machinery keeps indexing by participant id directly.
	reg   *Registry
	peers []*peer

	// sampler draws the per-round cohort (everyone when CohortSize is 0).
	sampler *cohort.Sampler

	paramIndex map[*nn.Param]int

	// arrivals carries every finished call to the collecting round;
	// inFlight marks participants with an outstanding call.
	arrivals chan arrival
	inFlight map[int]bool

	// downlink holds per-participant top-k weight mirrors (wire.TopK only;
	// nil otherwise), indexed by participant id. topkRatio is the effective
	// downlink (weight-delta) selection fraction, topkGradRatio the uplink
	// (gradient) fraction requested from participants.
	downlink      []*peerMirror
	topkRatio     float64
	topkGradRatio float64

	// pool parallelizes per-participant payload serialization at dispatch
	// and, inside the core, delay compensation and the sharded merge.
	pool *parallel.Pool

	// done closes on the first Close and stops the redial loops.
	done      chan struct{}
	closeOnce sync.Once

	// curRound is the round the loop is currently driving, read by
	// lifecycle goroutines when they stamp trace events.
	curRound atomic.Int64

	// tracer receives per-round span events (nil = disabled); met holds
	// the registry-backed runtime counters and lcMet the participant
	// lifecycle counters/gauges. wireMet is shared by pointer with the
	// connection codecs, so SetTelemetry can swap the counters they feed
	// after dialing.
	tracer  *telemetry.Tracer
	met     telemetry.RoundMetrics
	lcMet   telemetry.LifecycleMetrics
	wireMet *telemetry.WireMetrics
}

// arrival is the outcome of one dispatched call, stamped with the round and
// participant of the request that produced it — never with what the peer
// echoed. reply is nil when the call failed or the echo did not match.
type arrival struct {
	round, pid int
	reply      *TrainReply
}

// NewServer dials the participant addresses and prepares the search state.
func NewServer(cfg ServerConfig, addrs []string) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpcfed: no participant addresses")
	}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(cfg.Seed+2)), cfg.Net)
	if err != nil {
		return nil, err
	}
	nE, rE := net.ArchSpace()
	ctrl, err := controller.New(nE, rE, net.NumCandidates(), cfg.Alpha)
	if err != nil {
		return nil, err
	}
	sampler, err := cohort.New(cfg.Seed+303, len(addrs), cfg.CohortSize)
	if err != nil {
		return nil, fmt.Errorf("rpcfed: %w", err)
	}
	s := &Server{
		cfg:  cfg,
		net:  net,
		ctrl: ctrl,

		reg:     newRegistry(addrs),
		sampler: sampler,

		// One slot per participant, so no call goroutine ever blocks on its
		// send: a participant is only dispatched again once its previous
		// arrival has been received.
		arrivals: make(chan arrival, len(addrs)),
		inFlight: make(map[int]bool, len(addrs)),
		pool:     parallel.New(cfg.Transport.Workers),
		done:     make(chan struct{}),
	}
	s.peers = s.reg.peers
	s.paramIndex = make(map[*nn.Param]int)
	for i, p := range net.Params() {
		s.paramIndex[p] = i
	}
	s.core = round.New(round.Config{
		Net: net, Ctrl: ctrl, Sampler: sampler, Pool: s.pool,
		Opt:        nn.NewSGD(cfg.ThetaLR, cfg.ThetaMomentum, cfg.ThetaWD, cfg.ThetaClip),
		RNG:        rand.New(rand.NewSource(cfg.Seed)),
		StepParams: net.Params(),
		Sync:       cfg.SyncConfig,
		WallClock:  true,
	}, rpcTransport{s})
	if cfg.Transport.Wire == wire.TopK {
		s.topkRatio = cfg.Transport.TopKRatio
		if s.topkRatio == 0 {
			s.topkRatio = defaultTopKRatio
		}
		s.topkGradRatio = cfg.Transport.TopKGradRatio
		if s.topkGradRatio == 0 {
			s.topkGradRatio = defaultTopKGradRatio
		}
		s.downlink = make([]*peerMirror, len(addrs))
		for i := range s.downlink {
			s.downlink[i] = &peerMirror{params: make(map[int][]float64)}
		}
	}
	s.met = telemetry.NewDisabledRoundMetrics()
	s.core.SetTelemetry(nil, s.met)
	s.lcMet = telemetry.NewDisabledLifecycleMetrics(len(addrs))
	wm := telemetry.NewDisabledWireMetrics()
	s.wireMet = &wm
	if !cfg.Transport.LazyDial {
		for _, p := range s.peers {
			client, err := dialParticipant(p.addr, cfg.Transport.Wire, s.wireMet,
				cfg.Transport.DialAttempts, cfg.Transport.DialBackoff)
			if err != nil {
				s.Close()
				return nil, err
			}
			p.mu.Lock()
			p.client = client
			p.mu.Unlock()
		}
	}
	s.net.SetTraining(true)
	return s, nil
}

// Close tears down the participant connections and stops the background
// redial loops. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	for _, p := range s.peers {
		p.mu.Lock()
		c := p.client
		p.client = nil
		p.mu.Unlock()
		if c != nil {
			_ = c.Close()
		}
	}
}

// Supernet exposes the server-side supernet (e.g. to warm-start θ).
func (s *Server) Supernet() *nas.Supernet { return s.net }

// CohortFor reports the cohort the sampler draws for a round — a pure
// function of the configured seed, usable before, during, or after a run.
func (s *Server) CohortFor(round int) []int { return s.sampler.Cohort(round) }

// SetTelemetry attaches a span tracer and a metric registry to the server.
// Both may be nil: a nil tracer disables tracing, a nil registry keeps the
// private one created by NewServer. Call it before Run.
func (s *Server) SetTelemetry(tracer *telemetry.Tracer, reg *telemetry.Registry) {
	s.tracer = tracer
	// A traced server always has a trace ID, so every round opens a span
	// and dispatched requests carry wire context to the workers.
	s.tracer.EnsureTraceID()
	if reg != nil {
		s.met = telemetry.NewRoundMetrics(reg)
		s.lcMet = telemetry.NewLifecycleMetrics(reg, len(s.peers))
		*s.wireMet = telemetry.NewWireMetrics(reg)
		s.pool.Observe(reg)
	}
	s.core.SetTelemetry(s.tracer, s.met)
}

// Run executes cfg.Rounds rounds of Alg. 1 over the RPC participants and
// derives the final genotype.
func (s *Server) Run() (ServerResult, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the round loop stops at the next select point and returns the partial
// result so far — curve, reply counts, and the genotype derived from the
// current policy — together with ctx.Err(). A background context makes it
// behave exactly like Run.
func (s *Server) RunContext(ctx context.Context) (ServerResult, error) {
	res := ServerResult{}
	for t := 0; t < s.cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return s.withGenotype(res), err
		}
		s.curRound.Store(int64(t))
		rep, err := s.core.Step(ctx, t, true, true)
		if err != nil {
			return s.withGenotype(res), err
		}
		res.Curve.Add(t, rep.FreshAccuracy)
		res.RoundSeconds = append(res.RoundSeconds, rep.Seconds)
		res.RoundsCompleted++
		res.FreshReplies += rep.Fresh
		res.LateReplies += rep.Late
		res.DroppedReplies += rep.Dropped
	}
	return s.withGenotype(res), nil
}

// withGenotype derives the genotype from the current policy, so a cancelled
// or failed run still yields a usable (if early) architecture.
func (s *Server) withGenotype(res ServerResult) ServerResult {
	res.Genotype = s.ctrl.Derive(s.cfg.Net.Candidates, s.cfg.Net.Nodes)
	return res
}

// rpcTransport is the round core's RPC transport.
type rpcTransport struct{ s *Server }

// Exchange dispatches round t to the cohort over RPC and collects replies
// until a quorum of this round's have arrived or RoundTimeout expires.
// Replies are only judged cheaply and buffered on arrival; they are returned
// sorted by (Round, ParticipantID), because floating-point addition is not
// associative and merging in arrival order would make results depend on
// network timing — sorted merging keeps a -wire fp64 run bit-identical to the
// gob baseline (and to itself).
func (x rpcTransport) Exchange(ctx context.Context, t int, snap *round.Snapshot) ([]round.Reply, error) {
	s := x.s
	roundStart := time.Now()
	spanCtx := s.tracer.RoundContext(t)
	members, gates := snap.Cohort, snap.Gates

	// The quorum is dynamic: the configured fraction applies to the
	// cohort members currently believed live, so the round loop keeps
	// making progress as peers die (and tightens again as redials bring
	// them back). With every peer alive this reduces to the static
	// ceil-ish quorum the engine always used.
	live := s.liveCountIn(members)
	quorum := int(float64(live)*s.cfg.Quorum + 0.5)
	if quorum < 1 {
		quorum = 1
	}

	// Dispatch to every live cohort member that is not still busy with
	// an earlier round (genuine soft sync: stragglers skip rounds; dead
	// peers are reported offline until their redial loop revives them).
	// Payload serialization — sampling and flattening each participant's
	// sub-model weights, the server-side hot path — fans out across the
	// worker pool; the supernet is read-only for the whole exchange, so
	// tasks share it safely. Dispatch itself stays in participant order.
	var replies []round.Reply
	var todo []int // cohort positions
	for j, pid := range members {
		if s.inFlight[pid] {
			continue
		}
		if s.peers[pid].State() == StateDead {
			replies = append(replies, round.Reply{Round: t, PID: pid, Status: round.Offline})
			continue
		}
		todo = append(todo, j)
	}
	reqs := make([]*TrainRequest, len(todo))
	reqBytes := make([]int64, len(todo))
	dispatchStart := time.Now()
	if err := s.pool.Run(len(todo), func(_, i int) error {
		j := todo[i]
		pid := members[j]
		sub := s.net.SampledParams(gates[j])
		span := spanCtx
		span.Participant = int32(pid)
		reqs[i] = &TrainRequest{
			Round:     t,
			Normal:    append([]int(nil), gates[j].Normal...),
			Reduce:    append([]int(nil), gates[j].Reduce...),
			BatchSize: s.cfg.BatchSize,
			Span:      span,
		}
		if s.cfg.Transport.Wire == wire.TopK {
			// Top-k transport: ship mirror deltas instead of dense
			// weights. Each worker touches only its own participant's
			// mirror, so the fan-out stays race-free.
			subIdx := make([]int, len(sub))
			for si, p := range sub {
				subIdx[si] = s.paramIndex[p]
			}
			reqs[i].ParamIDs = subIdx
			reqs[i].TopKRatio = s.topkGradRatio
			reqs[i].Packed = s.downlink[pid].encodeDownlink(sub, subIdx, s.topkRatio)
			reqBytes[i] = int64(len(reqs[i].Packed))
			return nil
		}
		reqs[i].Weights = flattenValues(sub)
		// Measured encoded payload size under the active wire mode
		// (for Gob, the FP64-equivalent analytic size), not the 4 B/
		// param fiction — this is what transmission ranking and the
		// submodel_bytes telemetry now report.
		reqBytes[i] = wire.GroupBytes(s.cfg.Transport.Wire, reqs[i].Weights)
		return nil
	}); err != nil {
		return nil, err
	}
	var dispatchBytes int64
	for i, j := range todo {
		pid := members[j]
		s.met.SubModelBytes.Observe(float64(reqBytes[i]))
		s.tracer.SubModelSample(t, pid, reqBytes[i])
		dispatchBytes += reqBytes[i]
		s.inFlight[pid] = true
		go s.call(s.peers[pid], reqs[i])
	}
	s.tracer.RoundDispatch(t, dispatchBytes, time.Since(dispatchStart).Seconds())

	// Collect until quorum of THIS round's replies (late replies from
	// earlier rounds join the merge but not the quorum).
	freshCount := 0
	target := min(quorum, len(todo))
	handle := func(a arrival) {
		s.inFlight[a.pid] = false
		r := round.Reply{Round: a.round, PID: a.pid, Status: round.Lost}
		if a.reply != nil {
			// Ask the core what this reply answers before decoding: one it
			// will refuse goes back as a bare stamp for it to count.
			r.Status = round.Returned
			at, pos, verdict := s.core.Admit(t, a.round, a.pid)
			if verdict == round.Fresh || verdict == round.Late {
				if err := s.decodeReply(&r, a.reply, at.Gates[pos]); err != nil {
					r.Status = round.Lost // undecodable or wrong-shape payload
				} else if verdict == round.Fresh {
					freshCount++
				}
			}
		}
		replies = append(replies, r)
	}
	deadline := time.After(s.cfg.RoundTimeout)

	// If every participant is still busy with earlier rounds (or dead),
	// block for one reply (or the timeout) so the server does not spin.
	if len(todo) == 0 {
		select {
		case a := <-s.arrivals:
			handle(a)
		case <-deadline:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

collect:
	for freshCount < target {
		select {
		case a := <-s.arrivals:
			handle(a)
		case <-deadline:
			// Round closes below quorum: dead or straggling
			// participants kept it from filling up.
			s.met.Timeouts.Inc()
			s.tracer.RoundTimeout(t, time.Since(roundStart).Seconds())
			break collect
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Drain any further replies already queued (late arrivals from
	// earlier rounds) without blocking the round.
drain:
	for {
		select {
		case a := <-s.arrivals:
			handle(a)
		default:
			break drain
		}
	}

	sort.Slice(replies, func(i, j int) bool {
		if replies[i].Round != replies[j].Round {
			return replies[i].Round < replies[j].Round
		}
		return replies[i].PID < replies[j].PID
	})
	return replies, nil
}

// decodeReply turns a wire reply into the core's form: gradients shaped like
// the sub-model gk selects, each tagged with its canonical parameter index.
func (s *Server) decodeReply(r *round.Reply, reply *TrainReply, gk nas.Gates) error {
	sub := s.net.SampledParams(gk)
	if len(reply.Packed) > 0 {
		// Top-k transport: the payload carries tag-4 deltas of the k
		// largest gradient+residual coordinates per tensor; decoding against
		// zeros recovers them as a dense (mostly zero) gradient.
		var err error
		if r.Grads, err = decodePackedGrads(reply.Packed, sub); err != nil {
			return err
		}
	} else {
		if len(reply.Grads) != len(sub) {
			return fmt.Errorf("rpcfed: %d gradient tensors, want %d", len(reply.Grads), len(sub))
		}
		r.Grads = make([]*tensor.Tensor, len(sub))
		for i, p := range sub {
			if len(reply.Grads[i]) != p.Value.Size() {
				return fmt.Errorf("rpcfed: gradient %d has %d values, want %d", i, len(reply.Grads[i]), p.Value.Size())
			}
			r.Grads[i] = tensor.FromSlice(reply.Grads[i], p.Value.Shape()...)
		}
	}
	r.SubIdx = make([]int, len(sub))
	for i, p := range sub {
		r.SubIdx[i] = s.paramIndex[p]
	}
	r.Acc = reply.Reward
	return nil
}

// call issues the RPC under the per-call deadline, feeds the lifecycle
// state machine, and forwards the outcome to the collecting round, stamped
// with the (round, participant) of the request. What the peer echoes is only
// checked against that stamp: an answer claiming another round or id is a
// misbehaving peer, and is lost like a failed call.
func (s *Server) call(p *peer, req *TrainRequest) {
	t0 := time.Now()
	reply := &TrainReply{}
	err := s.ensureClient(p)
	if err == nil {
		err = p.do("Participant.Train", req, reply, s.cfg.Transport.CallTimeout)
	}
	elapsed := time.Since(t0).Seconds()
	var replyBytes int64
	if err != nil {
		if isTransportFailure(err) {
			s.noteCallFailure(p, err)
		}
		if s.downlink != nil {
			// The participant may or may not have applied the delta we sent
			// (a timeout can fire after delivery), so its mirror state is
			// unknown: mark it for a dense resync. The dispatcher only reads
			// the flag after this goroutine's arrival clears the in-flight
			// bit, so the write is ordered by the arrivals channel.
			s.downlink[p.id].valid = false
		}
		// After a deadline expiry net/rpc may still write into the abandoned
		// reply object, so it must not travel any further.
		reply = nil
	} else {
		s.noteCallSuccess(p)
		if len(reply.Packed) > 0 {
			replyBytes = int64(len(reply.Packed))
		} else {
			replyBytes = wire.GroupBytes(s.cfg.Transport.Wire, reply.Grads)
		}
		if reply.Round != req.Round || reply.ParticipantID != p.id {
			reply = nil
		}
	}
	s.lcMet.CallSeconds.Observe(elapsed)
	s.lcMet.ObserveRoundSeconds(p.id, elapsed)
	s.tracer.RPCCall(req.Span, req.Round, p.id, replyBytes, elapsed, err == nil)
	s.arrivals <- arrival{round: req.Round, pid: p.id, reply: reply}
}

// ensureClient dials the peer's connection on first use — the lazy-dial
// path; a no-op when a connection is already up. The caller owns the
// peer's dispatch slot (its in-flight bit), so at most one ensureClient
// runs per peer, and redial loops only touch dead peers, which are never
// dispatched.
func (s *Server) ensureClient(p *peer) error {
	p.mu.Lock()
	have := p.client != nil
	p.mu.Unlock()
	if have {
		return nil
	}
	select {
	case <-s.done:
		return errPeerDown
	default:
	}
	client, err := dialParticipant(p.addr, s.cfg.Transport.Wire, s.wireMet,
		s.cfg.Transport.DialAttempts, s.cfg.Transport.DialBackoff)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.client == nil {
		p.client = client
		client = nil
	}
	p.mu.Unlock()
	if client != nil {
		_ = client.Close() // lost a race with a redial; keep the winner
	}
	return nil
}

func flattenValues(params []*nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value.Data()...)
	}
	return out
}
