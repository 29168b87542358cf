package rpcfed

import (
	"errors"
	"fmt"
	"net/rpc"
	"sync"
	"time"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// The participant lifecycle state machine. Every participant connection
// moves through
//
//	Alive ──transport failure──▶ Suspect ──second failure──▶ Dead
//	  ▲                             │                          │
//	  │◀────────── success ─────────┘                          │
//	  └────── background re-dial (capped exp. backoff) ◀───────┘
//
// Transport failures (connection reset, rpc.ErrShutdown, a per-call
// deadline expiry) drive the transitions; a server-side method error from
// a live participant is a reply problem, not a connectivity problem, and
// leaves the state alone. A Dead participant is excluded from dispatch and
// from the dynamic quorum until its redial loop — one goroutine per dead
// peer, reusing the startup dial machinery with the backoff doubled and
// capped — re-establishes a verified (Hello round-trip) connection.

// ParticipantState is a lifecycle state. The numeric values are exported
// as the participant_state_<id> gauges.
type ParticipantState int

// Lifecycle states.
const (
	StateAlive ParticipantState = iota
	StateSuspect
	StateDead
)

// String implements fmt.Stringer.
func (s ParticipantState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// deadAfterFailures is how many consecutive transport failures demote a
// participant from Alive through Suspect to Dead.
const deadAfterFailures = 2

// redialBackoffCap bounds the exponential redial backoff.
const redialBackoffCap = 2 * time.Second

// errPeerDown marks a call that was never issued because the participant
// is dead and its connection is gone.
var errPeerDown = errors.New("rpcfed: participant is dead (no connection)")

// errCallTimeout marks a call abandoned at the per-call deadline. The
// underlying net/rpc call may still complete; its reply object is
// abandoned with it, never recycled.
var errCallTimeout = errors.New("rpcfed: call deadline exceeded")

// peer is one participant endpoint with lifecycle state. The mutex guards
// client/state/failures against the three goroutines that touch them: the
// round loop (dispatch + quorum), in-flight call goroutines (failure and
// success notes), and the peer's redial loop.
type peer struct {
	id   int
	addr string

	mu       sync.Mutex
	client   *rpc.Client
	state    ParticipantState
	failures int
	// redialing keeps at most one redial loop alive per peer.
	redialing bool

	// Round buffers, touched only by whoever holds the peer's dispatch slot
	// (its in-flight bit): the dispatch refills req, net/rpc decodes the
	// answer into reply, and decodeReply rebinds grads onto it and lists
	// the sub-model in sub and subIdx. A failed call abandons reply, which
	// net/rpc may still write into, for a fresh one.
	req      TrainRequest
	reqBytes int64
	reply    *TrainReply
	sub      []*nn.Param
	subIdx   []int
	grads    []*tensor.Tensor
}

// State snapshots the lifecycle state.
func (p *peer) State() ParticipantState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// do issues one RPC against the peer's current connection, bounded by
// timeout when it is positive. On timeout the reply object passed in must
// be considered poisoned (net/rpc may still write into it later).
func (p *peer) do(method string, args, reply any, timeout time.Duration) error {
	p.mu.Lock()
	client := p.client
	p.mu.Unlock()
	if client == nil {
		return errPeerDown
	}
	if timeout <= 0 {
		return client.Call(method, args, reply)
	}
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-timer.C:
		return errCallTimeout
	}
}

// isTransportFailure classifies a call error: anything except a remote
// method error (rpc.ServerError) means the connection, not the
// computation, failed.
func isTransportFailure(err error) bool {
	if err == nil {
		return false
	}
	var remote rpc.ServerError
	return !errors.As(err, &remote)
}

// ParticipantStatus is the externally visible per-participant lifecycle
// snapshot (the /participants debug endpoint serves a list of these).
type ParticipantStatus struct {
	ID       int    `json:"id"`
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures"`
}

// liveCountIn returns how many of the given participants are not Dead —
// the population the round's dynamic quorum is computed over (the current
// cohort, or everyone when sampling is off).
func (s *Server) liveCountIn(ids []int) int {
	n := 0
	for _, id := range ids {
		if s.peers[id].State() != StateDead {
			n++
		}
	}
	return n
}

// noteCallSuccess resets the failure streak and recovers a Suspect back to
// Alive.
func (s *Server) noteCallSuccess(p *peer) {
	p.mu.Lock()
	p.failures = 0
	changed := p.state == StateSuspect
	if changed {
		p.state = StateAlive
	}
	p.mu.Unlock()
	if changed {
		s.publishState(p, StateAlive)
	}
}

// noteCallFailure advances the state machine after a transport failure.
// The second consecutive failure tears the connection down and hands the
// peer to a background redial loop.
func (s *Server) noteCallFailure(p *peer, err error) {
	if errors.Is(err, errCallTimeout) {
		s.lcMet.DeadlineExceeded.Inc()
	}
	p.mu.Lock()
	p.failures++
	var next ParticipantState
	var stale *rpc.Client
	startRedial := false
	switch {
	case p.state == StateDead:
		p.mu.Unlock()
		return
	case p.failures >= deadAfterFailures:
		next = StateDead
		stale = p.client
		p.client = nil
		if !p.redialing {
			p.redialing = true
			startRedial = true
		}
	default:
		next = StateSuspect
	}
	changed := p.state != next
	p.state = next
	p.mu.Unlock()

	if stale != nil {
		_ = stale.Close()
	}
	if changed {
		s.publishState(p, next)
	}
	if startRedial {
		go s.redialLoop(p)
	}
}

// publishState mirrors a transition into the gauge and the tracer.
func (s *Server) publishState(p *peer, state ParticipantState) {
	s.lcMet.SetState(p.id, int(state))
	s.tracer.PeerState(int(s.curRound.Load()), p.id, int(state))
}

// redialLoop re-dials a dead participant until it comes back or the server
// shuts down. Each attempt reuses the startup dial path (same wire mode,
// same counting connection) and must survive a Hello round-trip before the
// peer is declared Alive again — a listener that accepts and immediately
// drops connections (a crashed process, a chaos outage) keeps the peer
// Dead. Backoff starts at the configured DialBackoff and doubles up to
// redialBackoffCap.
func (s *Server) redialLoop(p *peer) {
	backoff := s.cfg.Transport.DialBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	helloTimeout := s.cfg.Transport.CallTimeout
	if helloTimeout <= 0 {
		helloTimeout = redialBackoffCap
	}
	for attempt := 1; ; attempt++ {
		select {
		case <-s.done:
			return
		case <-time.After(backoff):
		}
		if backoff < redialBackoffCap {
			backoff *= 2
		}
		s.lcMet.RedialAttempts.Inc()
		client, err := dialParticipant(p.addr, s.cfg.Transport.Wire, s.wireMet, 1, 0)
		if err != nil {
			continue
		}
		// Verify the connection end to end before trusting it.
		var hello HelloReply
		call := client.Go("Participant.Hello", &HelloRequest{}, &hello, make(chan *rpc.Call, 1))
		timer := time.NewTimer(helloTimeout)
		select {
		case <-call.Done:
			timer.Stop()
			err = call.Error
		case <-timer.C:
			err = errCallTimeout
		case <-s.done:
			timer.Stop()
			_ = client.Close()
			return
		}
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		p.client = client
		p.state = StateAlive
		p.failures = 0
		p.redialing = false
		p.mu.Unlock()
		s.lcMet.Redials.Inc()
		s.publishState(p, StateAlive)
		s.tracer.PeerRedial(int(s.curRound.Load()), p.id, attempt)
		return
	}
}
