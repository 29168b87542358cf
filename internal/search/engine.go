package search

import (
	"context"
	"time"

	"fedrlnas/internal/fed"
	"fedrlnas/internal/round"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/transmission"
	"fedrlnas/internal/wire"
)

// The in-process transport of the round core (internal/round). An exchange
// fans the cohort's local steps (fed.Replica.Train) out across the worker
// pool; every worker owns a private supernet replica and every cohort
// position a private fed.Slot, so no mutable tensor is ever shared between
// in-flight participants. Determinism holds because
//
//   - every stochastic draw a participant makes (churn, staleness, batch
//     selection, augmentation) comes from that participant's own RNG, so the
//     per-participant draw sequence is independent of scheduling;
//   - the local step itself is pure floating-point arithmetic on a restored
//     θ snapshot, identical on any replica;
//   - all order-sensitive mutation — gradient aggregation, α accumulation,
//     batch-norm running-stat updates — happens in the core's merge, over
//     replies returned in fixed cohort-position order.
//
// The merged state is therefore bit-identical at every worker count. See
// DESIGN.md §12.

// inProcess is the round core's in-process transport: participants are
// structs in this process, their local steps run on worker replicas, and
// reply delays are drawn from the configured staleness schedule instead of
// arriving late for real.
type inProcess struct{ s *Search }

// Exchange runs round t's participant side: adaptive sub-model assignment
// (Alg. 1 lines 10–11), then every cohort member's local step fanned out
// across the worker pool. Replies come back in cohort-position (ascending
// participant id) order, one per member, which is the merge order.
func (e inProcess) Exchange(_ context.Context, t int, snap *round.Snapshot) ([]round.Reply, error) {
	s := e.s
	members := snap.Cohort
	// Sizes are the measured wire-frame bytes each sampled sub-model would
	// occupy on the RPC transport's default fp64 codec — the quantity
	// adaptive transmission actually saves. The same loop materializes any member not
	// yet built (and its personal head) before the parallel phase, so lazy
	// construction stays single-threaded.
	sampled, sizes, bw := s.sampled, s.sizes, s.bw
	copy(sampled, snap.Gates)
	for j, pid := range members {
		sizes[j] = s.net.SubModelWireBytes(sampled[j], wire.FP64)
		s.tracer.SubModelSample(t, pid, sizes[j])
		p, err := s.pop.Get(pid)
		if err != nil {
			return nil, err
		}
		if s.personalize {
			s.ensureHead(pid)
		}
		bw[j] = p.BandwidthAt(t)
	}
	assign, err := transmission.Assign(s.cfg.Transmission, sizes, bw, s.rng)
	if err != nil {
		return nil, err
	}
	// snap.Gates[j] becomes the sub-model cohort position j actually trains;
	// that is what the core remembers for this round's stragglers.
	var dispatchBytes int64
	for j, pid := range members {
		snap.Gates[j] = sampled[assign.ModelFor[j]]
		sz := sizes[assign.ModelFor[j]]
		dispatchBytes += sz
		s.SubModelBytes = append(s.SubModelBytes, sz)
		s.met.SubModelBytes.Observe(float64(sz))
		s.tracer.TxAssign(t, pid, sz, assign.LatencySeconds[j])
	}

	// Each task runs on a private supernet replica; the primary network's
	// weights are never touched during the parallel phase.
	replies := s.results[:len(members)]
	dispatchStart := time.Now()
	if err := s.pool.Run(len(members), func(worker, j int) error {
		return s.runParticipant(s.replicas[worker], t, j, snap, assign.LatencySeconds[j], &replies[j])
	}); err != nil {
		return nil, err
	}
	s.tracer.RoundDispatch(t, dispatchBytes, time.Since(dispatchStart).Seconds())
	return replies, nil
}

// runParticipant executes one cohort member's side of round t (Alg. 1 lines
// 37–42) on the given worker replica, writing its reply into res. pos is the
// member's cohort position (which keys all round-scoped buffers) and
// now.Cohort[pos] its stable participant id (which keys its data shard and
// RNG). A delay drawn from the staleness schedule makes it a straggler: it
// trains the sub-model it was sent delay rounds ago against that round's θ,
// as the core's acceptance rule recovers them. It only reads shared state
// that is immutable for the duration of the exchange — the snapshots, and
// the participant's private RNG/batcher, materialized before the parallel
// phase began.
func (s *Search) runParticipant(rep *fed.Replica, t, pos int, now *round.Snapshot, latency float64, res *round.Reply) error {
	pid := now.Cohort[pos]
	*res = round.Reply{Round: t, PID: pid}
	part, err := s.pop.Get(pid)
	if err != nil {
		return err
	}
	// The scenario profile's availability schedule overrides the run-wide
	// churn; a participant with neither makes no draw, so pre-scenario
	// streams are untouched.
	churn := s.cfg.ChurnProb
	if part.ChurnProb > 0 {
		churn = part.ChurnProb
	}
	if churn > 0 && part.RNG.Float64() < churn {
		res.Status = round.Offline
		return nil
	}
	delay, dropped := 0, false
	if s.cfg.Strategy != staleness.Hard {
		delay, dropped = s.cfg.Staleness.Sample(part.RNG)
	}
	if dropped {
		res.Status = round.Lost
		return nil
	}
	at, gk := now, now.Gates[pos]
	if delay > 0 && delay <= t { // nothing older exists in the first rounds
		old, oldPos, verdict := s.core.Admit(t, t-delay, pid)
		switch verdict {
		case round.Late:
			at, gk, res.Round = old, old.Gates[oldPos], t-delay
		case round.Dropped:
			// No point training a reply the core will refuse: hand back the
			// bare stamp and let it do the counting.
			res.Round = t - delay
			return nil
		}
		// NotDispatched: a straggler's delayed reply only exists if it was
		// sampled at t′; outside that cohort there is no stale sub-model to
		// have trained, so it trains fresh (the staleness draw above still
		// consumed the same RNG values, so the schedule stays fault- and
		// cohort-independent).
	}

	// Local step against θ at the dispatch round, on this worker's replica,
	// into this cohort position's slot. The reply aliases the slot's
	// buffers, which the core owns until the next exchange.
	st := fed.Step{Gates: gk, Theta: at.Theta, BatchSize: s.cfg.BatchSize, Augment: s.cfg.Augment}
	if s.personalize {
		// Federated body, local head. heads[pid] exists — it was
		// materialized before the parallel phase — and is only ever touched
		// by pid's own task, so the step's read and write are race-free.
		st.Head, st.HeadLR = s.heads[pid], s.headLR
	}
	sl := &s.slots[pos]
	if err := rep.Train(s.ds, part, st, sl); err != nil {
		return err
	}
	res.Acc, res.SubIdx, res.Grads, res.BNStats = sl.Acc, sl.SubIdx, sl.Grads, sl.BNStats
	if res.Round == t {
		// Soft synchronization: only fresh participants gate the round's
		// clock; stragglers' time was paid in earlier rounds.
		res.Seconds = 2*latency + part.ComputeSeconds(sl.Size, s.cfg.BatchSize)
	}
	return nil
}
