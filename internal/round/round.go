// Package round owns the server side of the paper's Alg. 1, exactly once.
//
// One Step is one communication round: snapshot θ and α, draw the cohort,
// sample one gate vector per member, hand the round to a Transport, then
// judge every reply the transport brings back (fresh, late, dropped,
// offline), delay-compensate the late ones against the state of their own
// dispatch round (Eq. 13–15), merge in the order the transport fixed, and
// step θ and α. The in-process engine (internal/search) and the RPC server
// (internal/rpcfed) are the two transports; everything order- or
// staleness-sensitive lives here and has one call site. So does the run's
// shared configuration: Spec is declared, defaulted and validated here, and
// New builds the controller, the θ optimizer and the cohort sampler from it.
//
// The seam's contract:
//
//   - The core owns the Snapshot it passes to Exchange and every retained
//     one. A transport only reads them, with one exception: before it reads
//     anything else it may reassign entries of the current round's Gates
//     among the sampled sub-models (adaptive transmission). Whatever it
//     leaves there is what the core remembers for that round. A snapshot
//     is valid until its round is evicted, Δ rounds later; the core then
//     recycles its storage for a later round.
//   - The transport owns the replies and their buffers until Exchange
//     returns; from then until its next Exchange the core owns them and may
//     write Grads in place (the merge accumulates into them, delay
//     compensation overwrites them), so a transport may refill the same
//     buffers every round.
//   - The transport fixes the merge order: replies are merged in the order
//     returned. The core never reorders them.
//   - During Exchange a transport may run as much in parallel as it likes
//     and may call Admit from any goroutine; the core mutates nothing until
//     Exchange returns.
//
// Built with the fedcheck tag, the core poisons what these rules declare
// dead: the previous replies' gradients when its next Exchange starts, and
// an evicted snapshot's θ until the snapshot is refilled, so a read past
// either lifetime computes NaNs.
package round

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/controller"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

// Snapshot is the server state of one dispatch round: the Θ/𝔸/𝔾 memories of
// Alg. 1 plus the cohort the gates were sampled for.
type Snapshot struct {
	// Theta holds every supernet parameter value in canonical order and
	// Alpha the controller logits, as of the start of the round. They alias
	// the live state when no stale read can ever occur.
	Theta []*tensor.Tensor
	Alpha controller.AlphaSnapshot
	// Cohort is the round's members, ascending; Gates[j] is the sub-model
	// member Cohort[j] trains.
	Cohort []int
	Gates  []nas.Gates

	// gates owns the storage Gates[j] are sampled into, which a
	// transport's reassignment of Gates never shares between entries.
	gates []nas.Gates
}

// Status says what a transport knows about a reply before the core judges it.
type Status int

const (
	// Returned: the participant answered; the payload fields are set.
	Returned Status = iota
	// Offline: the participant was not reachable this round and was never
	// asked (churn, a peer the lifecycle machine holds dead).
	Offline
	// Lost: the participant was asked and no usable answer exists — the call
	// failed, the answer fell outside the staleness schedule, or it did not
	// match the request that produced it.
	Lost
)

// Reply is one participant's answer to the dispatch of round Round.
type Reply struct {
	// Round and PID name the request this answers; the transport stamps them
	// from what it sent, never from what came back.
	Round, PID int
	Status     Status
	// Acc is the training accuracy on the local batch (Eq. 8's ACC).
	Acc float64
	// Grads[i] is ∇θ for canonical parameter SubIdx[i].
	SubIdx []int
	Grads  []*tensor.Tensor
	// BNStats[layer], when the transport carries them, are the batch
	// statistics the participant's forward pass captured, replayed onto the
	// primary network in merge order.
	BNStats [][]nn.BNStats
	// Seconds is what a fresh reply costs on a simulated clock (download,
	// compute, upload); the slowest one is the round's duration. Unused
	// under Config.WallClock.
	Seconds float64
}

// Transport carries one round to the participants and back.
type Transport interface {
	// Exchange dispatches round t's sub-models (snap.Gates[j] to member
	// snap.Cohort[j]) and returns the replies this round is to merge, in
	// merge order. They may answer earlier rounds (stragglers); every member
	// the transport knows the fate of should appear, including offline and
	// lost ones, so the round's accounting is complete.
	Exchange(ctx context.Context, t int, snap *Snapshot) ([]Reply, error)
}

// Verdict is the acceptance rule's answer for one reply.
type Verdict int

const (
	// Dropped: older than Δ, late under Hard or Throw, or its dispatch
	// round's snapshot is gone.
	Dropped Verdict = iota
	// NotDispatched: the participant was not in that round's cohort. The
	// core counts such a reply as dropped; a simulating transport uses the
	// distinction to know no stale sub-model exists.
	NotDispatched
	// Fresh answers the current round; Late an earlier one within Δ.
	Fresh
	Late
)

// Config wires the core to the run it steps. The core builds the
// controller, the θ optimizer and the cohort sampler from Spec; the façade
// supplies what differs between transports. The core is the only writer of
// Supernet's parameters during Step.
type Config struct {
	// Spec is the run's shared configuration. Spec.StalenessThreshold is
	// both the acceptance bound Δ and the snapshot retention, so a façade
	// with a delay schedule passes a copy widened to max(Δ,
	// schedule.MaxDelay()).
	Spec Spec
	// Enrolled is the population the cohort sampler draws from.
	Enrolled int
	// Supernet is the network θ lives in; its init seed is the façade's.
	Supernet *nas.Supernet
	// RNG is the gate-sampling stream. The core draws exactly one gate
	// vector per cohort member per round from it, before Exchange.
	RNG *rand.Rand
	// Pool runs delay compensation and the sharded θ merge.
	Pool *parallel.Pool
	// StepParams is the prefix of Supernet.Params() the optimizer steps and
	// replies may carry gradients for (all of it unless heads are personal).
	StepParams []*nn.Param
	// WallClock reports a round's duration as the wall time of Step (a real
	// network) instead of the slowest fresh reply's Seconds (a simulated one).
	WallClock bool
}

// Report summarizes one completed round.
type Report struct {
	Round int
	// Accuracy is the mean training accuracy over every merged reply (the
	// value the baseline absorbs); FreshAccuracy over the fresh ones only.
	Accuracy, FreshAccuracy float64
	Seconds                 float64
	// This round's reply handling.
	Fresh, Late, Dropped, Offline int
}

// Core is the Alg. 1 server step.
type Core struct {
	cfg     Config
	tr      Transport
	ctrl    *controller.Controller
	opt     *nn.SGD
	sampler *cohort.Sampler
	params  []*nn.Param
	bns     []*nn.BatchNorm2D
	delta   int

	// pool retains the last Δ rounds' snapshots, refilled in place. When no
	// stale read can occur (hard sync, or Δ = 0) it is one live snapshot,
	// whose θ and α alias the live state.
	pool  *staleness.Pool[Snapshot]
	alias bool
	// last holds the previous exchange's replies, the core's until the
	// next Exchange starts.
	last []Reply

	// seen[round mod (Δ+1)][position] holds the last Step (as t+1) that
	// accepted a reply to that dispatch, so a second one in the same
	// exchange is refused.
	seen [][]int

	// slots[i] is the scratch for the i-th reply of an exchange and merged
	// the indices of the accepted ones, in merge order; aggTheta and aggAlpha
	// are the round's accumulators. All are reused across rounds.
	slots    []slot
	merged   []int
	aggTheta []*tensor.Tensor
	aggAlpha controller.AlphaGrad

	tracer *telemetry.Tracer
	met    telemetry.RoundMetrics
}

// slot is what the core derives for one accepted reply: the dispatch round's
// state, and the (possibly compensated) gradients to merge.
type slot struct {
	at      *Snapshot
	pos     int
	logGrad controller.AlphaGrad
	// fresh/stale are the θ value lists Eq. 13 reads and drift Eq. 15's
	// α_t − α_t′, kept across rounds.
	fresh, stale []*tensor.Tensor
	drift        controller.AlphaGrad
}

// New builds the core over tr, together with the controller, the θ
// optimizer and the cohort sampler cfg.Spec describes. Telemetry starts
// disabled.
func New(cfg Config, tr Transport) (*Core, error) {
	spec := cfg.Spec
	sampler, err := cohort.New(spec.Seed+303, cfg.Enrolled, spec.CohortSize)
	if err != nil {
		return nil, err
	}
	nE, rE := cfg.Supernet.ArchSpace()
	ctrl, err := controller.New(nE, rE, cfg.Supernet.NumCandidates(), spec.Alpha)
	if err != nil {
		return nil, err
	}
	delta := spec.StalenessThreshold
	c := &Core{
		cfg:     cfg,
		tr:      tr,
		ctrl:    ctrl,
		opt:     nn.NewSGD(spec.ThetaLR, spec.ThetaMomentum, spec.ThetaWD, spec.ThetaClip),
		sampler: sampler,
		params:  cfg.Supernet.Params(),
		bns:     cfg.Supernet.BatchNorms(),
		delta:   delta,
		alias:   spec.Strategy == staleness.Hard || delta == 0,
		seen:    make([][]int, delta+1),
		met:     telemetry.NewDisabledRoundMetrics(),
	}
	for i := range c.seen {
		c.seen[i] = make([]int, sampler.Size())
	}
	c.pool = staleness.NewPool[Snapshot](delta)
	if c.alias {
		c.pool = staleness.NewLivePool[Snapshot](delta)
	} else if tensor.Fedcheck {
		c.pool.OnEvict = func(s *Snapshot) { tensor.Poison(s.Theta...) }
	}
	for i := range c.pool.Slots() {
		s := &c.pool.Slots()[i]
		s.Gates = make([]nas.Gates, sampler.Size())
		s.gates = make([]nas.Gates, sampler.Size())
		s.Theta = make([]*tensor.Tensor, len(c.params))
		for k, p := range c.params {
			s.Theta[k] = p.Value
			if !c.alias {
				s.Theta[k] = p.Value.Clone()
			}
		}
	}
	c.aggTheta = make([]*tensor.Tensor, len(c.params))
	c.aggAlpha = controller.NewAlphaGrad(nE, rE, cfg.Supernet.NumCandidates())
	return c, nil
}

// Controller returns the RL controller the core steps.
func (c *Core) Controller() *controller.Controller { return c.ctrl }

// Optimizer returns the θ optimizer; its momentum is checkpoint state.
func (c *Core) Optimizer() *nn.SGD { return c.opt }

// Sampler returns the cohort sampler.
func (c *Core) Sampler() *cohort.Sampler { return c.sampler }

// Derive returns the argmax genotype under the current policy.
func (c *Core) Derive() nas.Genotype {
	return c.ctrl.Derive(c.cfg.Spec.Net.Candidates, c.cfg.Spec.Net.Nodes)
}

// SetTelemetry points the core's spans and counters at the façade's.
func (c *Core) SetTelemetry(tracer *telemetry.Tracer, met telemetry.RoundMetrics) {
	c.tracer, c.met = tracer, met
}

// Retained reports how many rounds' snapshots the core currently holds.
func (c *Core) Retained() int { return c.pool.Len() }

// Admit applies Alg. 1's acceptance rule to a reply to dispatch (from, pid)
// arriving in round now and, when it is accepted, recovers that round's
// snapshot and the participant's position in its cohort. It is a pure read:
// transports call it to learn what a straggler trained (or to skip work on a
// reply that will be dropped), and Step calls it again on every reply.
func (c *Core) Admit(now, from, pid int) (*Snapshot, int, Verdict) {
	delay := now - from
	switch {
	case from < 0 || delay < 0 || delay > c.delta:
		return nil, 0, Dropped
	case delay > 0 && (c.cfg.Spec.Strategy == staleness.Hard || c.cfg.Spec.Strategy == staleness.Throw):
		return nil, 0, Dropped
	}
	at := c.pool.At(from)
	if at == nil {
		return nil, 0, Dropped
	}
	pos, ok := cohort.Position(at.Cohort, pid)
	if !ok {
		return nil, 0, NotDispatched
	}
	if delay == 0 {
		return at, pos, Fresh
	}
	return at, pos, Late
}

// Step runs round t of Alg. 1. updateTheta and updateAlpha select which of
// the two optimizers step (warm-up freezes α, the α-only ablation θ).
func (c *Core) Step(ctx context.Context, t int, updateTheta, updateAlpha bool) (Report, error) {
	start := time.Now()
	c.tracer.RoundStart(t)
	now := c.snapshot(t)
	if tensor.Fedcheck {
		for i := range c.last {
			tensor.Poison(c.last[i].Grads...)
		}
	}
	c.last = nil
	replies, err := c.tr.Exchange(ctx, t, now)
	if err != nil {
		return Report{}, err
	}
	c.last = replies

	mergeStart := time.Now()
	rep := Report{Round: t}
	if len(c.slots) < len(replies) {
		c.slots = append(c.slots, make([]slot, len(replies)-len(c.slots))...)
	}
	c.merged = c.merged[:0]
	for i := range replies {
		c.judge(t, i, &replies[i], &rep)
	}
	// Eq. 13–15 for the late replies, in the worker pool: each task writes
	// only its own slot.
	if rep.Late > 0 && c.cfg.Spec.Strategy == staleness.DC {
		if err := c.cfg.Pool.Run(len(c.merged), func(_, k int) error {
			i := c.merged[k]
			if replies[i].Round == t {
				return nil
			}
			return c.compensate(now, &replies[i], &c.slots[i])
		}); err != nil {
			return Report{}, err
		}
	}

	// Ordered merge (Alg. 1 lines 16–31). Scalars, α and replayed batch-norm
	// statistics fold sequentially in reply order; θ folds in the sharded
	// pass below.
	c.aggAlpha.Zero()
	sumAcc, sumFreshAcc, seconds := 0.0, 0.0, 0.0
	for _, i := range c.merged {
		r := &replies[i]
		c.aggAlpha.AXPY(c.ctrl.Reward(r.Acc), c.slots[i].logGrad)
		nn.ReplayStats(c.bns, r.BNStats)
		sumAcc += r.Acc
		if r.Round == t {
			sumFreshAcc += r.Acc
			if r.Seconds > seconds {
				seconds = r.Seconds
			}
		}
	}
	// The θ tree shards by destination parameter index, never by reply, so
	// each accumulator receives exactly the additions, in exactly the order,
	// of the single-shard merge: bit-identical at every shard and worker
	// count.
	clear(c.aggTheta)
	if err := c.cfg.Pool.RunShards(len(c.params), c.cfg.Spec.Shards, func(_ int, rg parallel.Range) error {
		for _, i := range c.merged {
			grads := replies[i].Grads
			for k, idx := range replies[i].SubIdx {
				if idx < rg.Lo || idx >= rg.Hi {
					continue
				}
				if c.aggTheta[idx] == nil {
					c.aggTheta[idx] = grads[k]
				} else {
					c.aggTheta[idx].AddInPlace(grads[k])
				}
			}
		}
		return nil
	}); err != nil {
		return Report{}, err
	}
	c.tracer.RoundMerge(t, len(c.merged), time.Since(mergeStart).Seconds())

	// Line 32: divide by the contributors M, then step.
	updateStart := time.Now()
	if m := len(c.merged); m > 0 {
		rep.Accuracy = sumAcc / float64(m)
		inv := 1.0 / float64(m)
		if updateTheta {
			for i, p := range c.cfg.StepParams {
				p.Grad.Zero()
				if c.aggTheta[i] != nil {
					p.Grad.AXPY(inv, c.aggTheta[i])
				}
			}
			c.opt.Step(c.cfg.StepParams)
			for _, p := range c.cfg.StepParams {
				if p.Value.HasNaN() {
					return Report{}, &ErrDiverged{Round: t, Param: p.Name}
				}
			}
		}
		if updateAlpha {
			c.aggAlpha.Scale(inv)
			c.ctrl.Apply(c.aggAlpha)
			c.ctrl.UpdateBaseline(rep.Accuracy)
			c.tracer.AlphaUpdate(t, c.ctrl.Entropy())
		}
	}
	if rep.Fresh > 0 {
		rep.FreshAccuracy = sumFreshAcc / float64(rep.Fresh)
	}
	c.tracer.ControllerUpdate(t, time.Since(updateStart).Seconds())

	rep.Seconds = seconds
	if c.cfg.WallClock {
		rep.Seconds = time.Since(start).Seconds()
	}
	c.met.Rounds.Inc()
	c.met.RoundSeconds.Observe(rep.Seconds)
	c.met.Accuracy.Set(rep.Accuracy)
	c.met.Entropy.Set(c.ctrl.Entropy())
	c.met.Baseline.Set(c.ctrl.Baseline())
	c.tracer.RoundEnd(t, rep.Seconds, rep.Accuracy)
	c.pool.Evict(t + 1)
	return rep, nil
}

// ErrDiverged is Step's error when the θ step left a parameter non-finite:
// training has diverged, and every later round would only spread the NaN.
// The callers pass it on (search.Run, rpcfed.Server.RunContext; a served job
// ends Failed with it).
type ErrDiverged struct {
	Round int    // the round whose step diverged
	Param string // the first stepped parameter holding a NaN or an infinity
}

func (e *ErrDiverged) Error() string {
	return fmt.Sprintf("round %d: θ diverged: parameter %s is not finite after the step", e.Round, e.Param)
}

// snapshot records round t's θ, α, cohort and freshly sampled gates (Alg. 1
// lines 4–9). Gates are drawn for every member, reachable or not, so the
// stream never depends on what the transport later reports.
func (c *Core) snapshot(t int) *Snapshot {
	s := c.pool.Slot(t)
	if c.alias {
		s.Alpha = c.ctrl.View()
	} else {
		for i, p := range c.params {
			s.Theta[i].CopyFrom(p.Value)
		}
		s.Alpha = c.ctrl.SnapshotInto(s.Alpha)
	}
	s.Cohort = c.sampler.AppendCohort(s.Cohort[:0], t)
	for j := range s.Gates {
		s.gates[j] = c.ctrl.SampleGatesInto(s.gates[j], c.cfg.RNG)
		s.Gates[j] = s.gates[j]
	}
	return s
}

// judge classifies reply i of the exchange, counts and traces it, and, when
// it is accepted, fills its slot and queues it for the merge. Every reply is
// tallied exactly once.
func (c *Core) judge(t, i int, r *Reply, rep *Report) {
	sl := &c.slots[i]
	if r.Status == Offline {
		rep.Offline++
		c.met.Offline.Inc()
		c.tracer.ReplyOffline(t, r.PID)
		return
	}
	verdict := Dropped
	if r.Status == Returned && c.wellFormed(r) {
		sl.at, sl.pos, verdict = c.Admit(t, r.Round, r.PID)
	}
	if verdict == Fresh || verdict == Late {
		mark := &c.seen[r.Round%(c.delta+1)][sl.pos]
		if *mark == t+1 {
			verdict = Dropped // the same dispatch answered twice in one exchange
		}
		*mark = t + 1
	}
	delay := 0
	if r.Round >= 0 && r.Round < t {
		delay = t - r.Round
	}
	switch verdict {
	case Fresh:
		rep.Fresh++
		c.met.RepliesFresh.Inc()
		c.tracer.ReplyFresh(t, r.PID)
	case Late:
		rep.Late++
		c.met.RepliesLate.Inc()
		c.tracer.ReplyLate(t, r.PID, delay)
	default:
		rep.Dropped++
		c.met.RepliesDropped.Inc()
		c.tracer.ReplyDropped(t, r.PID, delay)
		return
	}
	// ∇α log p(g) at the α the gates were sampled from (Eq. 12).
	controller.LogProbGradAtInto(&sl.logGrad, sl.at.Alpha, sl.at.Gates[sl.pos])
	c.merged = append(c.merged, i)
}

// wellFormed checks a returned payload against the parameters it claims to
// carry gradients for. A reply that fails is dropped, never an error: one
// peer's malformed answer must not end the search.
func (c *Core) wellFormed(r *Reply) bool {
	if len(r.SubIdx) == 0 || len(r.SubIdx) != len(r.Grads) || len(r.BNStats) > len(c.bns) {
		return false
	}
	for k, idx := range r.SubIdx {
		if idx < 0 || idx >= len(c.cfg.StepParams) || r.Grads[k] == nil ||
			!r.Grads[k].SameShape(c.cfg.StepParams[idx].Value) {
			return false
		}
	}
	return true
}

// compensate applies Eq. 13–15 to a late reply: the θ gradient against the
// drift θ_t − θ_t′ of the parameters it carries, the policy gradient against
// α_t − α_t′, both relative to the reply's own dispatch round t′. The θ
// correction overwrites the reply's gradients, which the core owns until
// the next Exchange.
func (c *Core) compensate(now *Snapshot, r *Reply, sl *slot) error {
	sl.fresh, sl.stale = sl.fresh[:0], sl.stale[:0]
	for _, idx := range r.SubIdx {
		sl.fresh = append(sl.fresh, now.Theta[idx])
		sl.stale = append(sl.stale, sl.at.Theta[idx])
	}
	err := staleness.CompensateThetaInPlace(r.Grads, sl.fresh, sl.stale, c.cfg.Spec.Lambda)
	clear(sl.fresh) // keep the storage, not the snapshots' tensors
	clear(sl.stale)
	if err != nil {
		return err
	}
	sl.at.Alpha.DiffInto(&sl.drift, now.Alpha)
	sl.logGrad.MulAdd3(c.cfg.Spec.Lambda, sl.logGrad, sl.drift)
	return nil
}
