package search

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/round"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/transmission"
)

// The in-process transport of the round core (internal/round). An exchange
// fans the cohort's local steps out across the worker pool; every worker owns
// a private supernet replica, so no mutable tensor is ever shared between
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

// workerReplica is the per-worker-slot mutable state: a structurally
// identical copy of the supernet whose parameters are restored from the
// round's θ snapshot before each local step.
type workerReplica struct {
	net    *nas.Supernet
	params []*nn.Param
	// index maps a replica parameter to its canonical position in the
	// primary supernet's Params() ordering (identical structural order).
	index map[*nn.Param]int
	// bns are the replica's batch-norm layers, index-aligned with the
	// primary network's, running in stat-capture mode.
	bns []*nn.BatchNorm2D
	// subScratch backs the sampled-params enumeration of whichever
	// participant currently runs on this replica (one at a time).
	subScratch []*nn.Param
}

// newWorkerReplicas builds one supernet replica per worker slot (capped at
// the participant count — more replicas could never be in flight at once).
func newWorkerReplicas(n int, seed int64, cfg Config) ([]*workerReplica, error) {
	reps := make([]*workerReplica, n)
	for i := range reps {
		// Structure is all that matters (weights are overwritten every
		// round), so reuse the primary network's init seed.
		net, err := nas.NewSupernet(rand.New(rand.NewSource(seed)), cfg.Net)
		if err != nil {
			return nil, fmt.Errorf("search: worker replica %d: %w", i, err)
		}
		net.SetTraining(true)
		bns := net.BatchNorms()
		for _, bn := range bns {
			bn.SetStatCapture(true)
		}
		params := net.Params()
		index := make(map[*nn.Param]int, len(params))
		for j, p := range params {
			index[p] = j
		}
		reps[i] = &workerReplica{net: net, params: params, index: index, bns: bns}
		if err := reps[i].prewarm(cfg); err != nil {
			return nil, fmt.Errorf("search: worker replica %d: %w", i, err)
		}
	}
	return reps, nil
}

// prewarm runs one forward/backward pass per candidate operation through the
// replica so every lazily sized op buffer exists before the first real round.
// Without this, workers>1 runs keep allocating far into the search: a
// (replica, edge, candidate) combination first-touches its buffers only when
// some round's random gates land that candidate on that edge while the
// participant happens to be scheduled on that replica — a coupon-collector
// process whose long tail showed up as a steady-state alloc regression at
// workers=4. Results of the warm passes are discarded: parameters are
// restored from the θ snapshot before every real local step, captured BN
// records are drained into the layer's freelist, and gradients are zeroed.
func (rep *workerReplica) prewarm(cfg Config) error {
	nE, rE := rep.net.ArchSpace()
	g := nas.Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
	x := tensor.New(cfg.BatchSize, cfg.Dataset.Channels, cfg.Dataset.Height, cfg.Dataset.Width)
	for c := 0; c < rep.net.NumCandidates(); c++ {
		for e := range g.Normal {
			g.Normal[e] = c
		}
		for e := range g.Reduce {
			g.Reduce[e] = c
		}
		logits := rep.net.ForwardSampled(x, g)
		rep.net.BackwardSampled(tensor.New(logits.Shape()...))
	}
	for _, bn := range rep.bns {
		bn.RecycleStats(bn.DrainCapturedStatsInto(nil))
	}
	nn.ZeroGrads(rep.params)
	return nil
}

// partScratch is cohort-position-scoped storage that survives across rounds
// so a steady-state local step needs no fresh allocations (the position's
// reply in Search.results keeps its own slices the same way). gradBufs is
// indexed by canonical parameter position; a buffer is allocated the first
// time its parameter appears in a sampled sub-model at this position and
// reused for every later round (the shape at a canonical index never
// changes). The buffers belong to the core from the end of Exchange until
// the next one begins, which is exactly when the next local step may
// overwrite them.
type partScratch struct {
	gradBufs []*tensor.Tensor
	// Local-step buffers: the gathered batch, its labels, the augmented
	// batch, and the loss gradient.
	xBuf      *tensor.Tensor
	labels    []int
	augBuf    *tensor.Tensor
	gradLogit *tensor.Tensor
}

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
	// occupy on the RPC transport under cfg.Wire — the quantity adaptive
	// transmission actually saves. The same loop materializes any member not
	// yet built (and its personal head) before the parallel phase, so lazy
	// construction stays single-threaded.
	sampled, sizes, bw := s.sampled, s.sizes, s.bw
	copy(sampled, snap.Gates)
	for j, pid := range members {
		sizes[j] = s.net.SubModelWireBytes(sampled[j], s.cfg.Wire)
		s.tracer.SubModelSample(t, pid, sizes[j])
		p, err := s.pop.Get(pid)
		if err != nil {
			return nil, err
		}
		if s.personalize {
			s.ensureHead(pid)
		}
		bw[j] = bandwidthAt(p, t)
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
func (s *Search) runParticipant(rep *workerReplica, t, pos int, now *round.Snapshot, latency float64, res *round.Reply) error {
	pid := now.Cohort[pos]
	// res is reused across rounds: only the payload slices' storage survives.
	*res = round.Reply{Round: t, PID: pid, SubIdx: res.SubIdx[:0], Grads: res.Grads[:0], BNStats: res.BNStats}
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

	// Local step against θ at the dispatch round, on this worker's replica.
	// All round-to-round buffers come from this cohort position's scratch,
	// so a steady-state local step allocates nothing.
	sc := &s.scratch[pos]
	if err := nn.RestoreParamValues(rep.params, at.Theta); err != nil {
		return err
	}
	if s.personalize {
		// Federated body, local head: overwrite the replica's (snapshot)
		// head with this client's private one. heads[pid] exists — it was
		// materialized before the parallel phase — and is only ever touched
		// by pid's own task, so the read and the write-back below are
		// race-free.
		for i, h := range s.heads[pid] {
			rep.params[s.headStart+i].Value.CopyFrom(h)
		}
	}
	batch := part.Batcher.Next(s.cfg.BatchSize)
	x, y := s.ds.GatherInto(sc.xBuf, sc.labels, batch)
	sc.xBuf, sc.labels = x, y
	x = s.cfg.Augment.ApplyInto(sc.augBuf, x, part.RNG)
	sc.augBuf = x
	nn.ZeroGrads(rep.params)
	lossRes, err := nn.CrossEntropyInto(sc.gradLogit, rep.net.ForwardSampled(x, gk), y)
	if err != nil {
		return err
	}
	sc.gradLogit = lossRes.GradLogits
	rep.net.BackwardSampled(lossRes.GradLogits)
	res.Acc = lossRes.Accuracy

	// Copy the sub-model's gradients out of the (shared) replica into this
	// position's persistent reply buffers.
	subParams := rep.net.AppendSampledParams(rep.subScratch[:0], gk)
	rep.subScratch = subParams
	for _, p := range subParams {
		idx := rep.index[p]
		if s.personalize && idx >= s.headStart {
			// Head gradients stay on the device: the local step below
			// consumes them, the federated merge never sees them.
			continue
		}
		buf := sc.gradBufs[idx]
		if buf == nil {
			buf = tensor.New(p.Grad.Shape()...)
			sc.gradBufs[idx] = buf
		}
		buf.CopyFrom(p.Grad)
		res.SubIdx = append(res.SubIdx, idx)
		res.Grads = append(res.Grads, buf)
	}

	// Local personalization step: plain SGD on the private head (no
	// momentum or weight decay — the head is a small linear probe and its
	// state must stay exactly "values", keeping checkpoints simple).
	if s.personalize {
		for i, h := range s.heads[pid] {
			h.AXPY(-s.headLR, rep.params[s.headStart+i].Grad)
		}
	}

	// Hand the captured batch-norm statistics to the merge. The records the
	// reply still holds were replayed by an earlier round's merge, so their
	// storage is recycled into the replica layer's freelist (layer index i
	// has the same channel count on every replica).
	if len(res.BNStats) != len(rep.bns) {
		res.BNStats = make([][]nn.BNStats, len(rep.bns))
	}
	for i, bn := range rep.bns {
		bn.RecycleStats(res.BNStats[i])
		res.BNStats[i] = bn.DrainCapturedStatsInto(res.BNStats[i][:0])
	}

	if res.Round == t {
		// Soft synchronization: only fresh participants gate the round's
		// clock; stragglers' time was paid in earlier rounds.
		res.Seconds = 2*latency + part.ComputeSeconds(nn.ParamCount(subParams), s.cfg.BatchSize)
	}
	return nil
}
