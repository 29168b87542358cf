package search

import (
	"context"
	"fmt"
	"math/rand"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/detrand"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/round"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

// Search holds the live state of one federated model search.
type Search struct {
	cfg Config
	ds  *data.Dataset
	// pop is the lazy participant registry: enrolled clients cost nothing
	// until first sampled into a cohort. The core's sampler draws each
	// round's cohort deterministically from the run seed; when it is full
	// (CohortSize 0) every round runs the whole population and the engine
	// behaves — bit for bit — like the pre-population code.
	pop *fed.Population
	net *nas.Supernet

	// Scenario lowering: profiles are the population's resolved device
	// profiles and profileOf[k] is participant k's profile index (both nil
	// without a scenario population). partition is retained so scenario
	// consumers (per-client evaluation on matched test slices) can inspect
	// shards.
	profiles  []scenario.Profile
	profileOf []int
	partition data.Partition

	// Personalization (federated body / local head): headStart is the
	// canonical index of the first classifier-head parameter (head params
	// are the tail of Params()'s canonical order; the shared prefix before it
	// is what the federated optimizer steps), headInit the supernet's initial
	// head values every client starts from, and heads each sampled client's
	// private head. heads is only written single-threaded — materialization
	// before the parallel phase, per-client tensor updates inside it touch
	// pre-existing entries for distinct pids.
	personalize bool
	headLR      float64
	headStart   int
	headInit    []*tensor.Tensor
	heads       map[int][]*tensor.Tensor

	rng *rand.Rand
	// rngSrc is the counting source behind rng; checkpoints persist its
	// position so a resumed run continues the gate/transmission stream
	// exactly where the saved run stopped.
	rngSrc *detrand.Source

	// pool fans participant local steps out across worker slots and replicas
	// holds one private supernet copy per slot (see engine.go).
	pool     *parallel.Pool
	replicas []*fed.Replica

	// core is the Alg. 1 server step (internal/round); this package is its
	// in-process transport. It owns the controller, the θ optimizer, the
	// cohort sampler, the θ/α/gates/cohort memories, the merge and both
	// optimizer steps.
	core *round.Core

	// slots holds per-cohort-position persistent local-step buffers, which
	// the replies alias; the remaining fields are round-scoped slices reused
	// across rounds so a steady-state round allocates no bookkeeping storage.
	slots   []fed.Slot
	sampled []nas.Gates
	sizes   []int64
	bw      []float64
	results []round.Reply

	// evalBatch and evalHead are EvalGates' test batch and saved shared
	// head, refilled per call.
	evalBatch fed.EvalBatch
	evalHead  []*tensor.Tensor

	round int

	// tracer receives per-round span events; nil (the default) is a
	// zero-cost no-op. met holds the registry-backed counters that are
	// the source of truth for all reply accounting.
	tracer *telemetry.Tracer
	met    telemetry.RoundMetrics

	// Stats tallies reply handling across all rounds. It is a façade
	// refreshed from the telemetry counters after every round.
	Stats RoundStats
	// Observer, when set, receives a report after every round.
	Observer func(RoundReport)

	// Curves and accounting, populated as phases run.
	WarmupCurve   metrics.Curve
	SearchCurve   metrics.Curve
	EntropyCurve  metrics.Curve
	BaselineCurve metrics.Curve
	RoundSeconds  []float64
	// SubModelBytes records the payload of every sub-model ever shipped.
	SubModelBytes []int64
}

// New constructs a search over a freshly generated dataset and participant
// population.
func New(cfg Config) (*Search, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	rng, rngSrc := detrand.New(cfg.Seed)
	// Scenario lowering, stage 1: the data partition. A scenario population
	// assigns profiles first (a pure function of the enrollment seed) and
	// partitions per profile group; a population-less Skew routes through
	// the SAME legacy partitioner calls on the SAME rng the flag-driven
	// path uses, so lowering old flags into a Spec is bit-identical.
	spec := cfg.Scenario
	profiles, fracs, err := spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("search: scenario: %w", err)
	}
	var profileOf []int
	var part data.Partition
	switch {
	case len(profiles) > 0:
		profileOf = scenario.Assign(fracs, cfg.K, cfg.Seed)
		part, err = scenario.PartitionFor(ds.TrainLabels, cfg.K, profileOf, profiles, spec.Skew, rng)
	case spec != nil && spec.Skew != nil && spec.Skew.Kind == scenario.SkewDirichlet:
		part, err = data.DirichletPartition(ds.TrainLabels, cfg.K, spec.Skew.Alpha, rng)
	case spec != nil && spec.Skew != nil:
		part, err = data.IIDPartition(ds.NumTrain(), cfg.K, rng)
	case cfg.Partition == IID:
		part, err = data.IIDPartition(ds.NumTrain(), cfg.K, rng)
	default:
		part, err = data.DirichletPartition(ds.TrainLabels, cfg.K, cfg.DirichletAlpha, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	// Every shard must be non-empty before the population is trusted to
	// materialize lazily: checking here keeps later Get calls infallible.
	for k, indices := range part.Indices {
		if len(indices) == 0 {
			return nil, fmt.Errorf("search: participant %d has an empty shard", k)
		}
	}
	pop := fed.NewPopulation(part, cfg.Seed+101)
	// Scenario lowering, stage 2: per-participant speed, bandwidth and
	// availability, installed as lazy functions of the stable participant
	// id so materialization order never matters. Trace sampling cannot fail
	// here: every regime name was parsed during Validate.
	if len(profiles) > 0 {
		rounds := cfg.WarmupSteps + cfg.SearchSteps
		if rounds <= 0 {
			rounds = 1
		}
		seed := cfg.Seed
		pop.SetSpeedFn(func(k int) float64 { return profiles[profileOf[k]].SpeedFactor() })
		pop.SetChurnFn(func(k int) float64 { return profiles[profileOf[k]].Churn })
		pop.SetTraceFn(func(k int) nettrace.Trace {
			tr, _ := profiles[profileOf[k]].ParticipantTrace(rounds, seed+404, k)
			return tr
		})
	}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(cfg.Seed+202)), cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	s := &Search{
		cfg:       cfg,
		ds:        ds,
		pop:       pop,
		net:       net,
		profiles:  profiles,
		profileOf: profileOf,
		partition: part,
		rng:       rng,
		rngSrc:    rngSrc,
		pool:      parallel.New(cfg.Workers),
		met:       telemetry.NewDisabledRoundMetrics(),
	}
	netParams := net.Params()
	stepParams := netParams
	// Personalization mode: the classifier head's parameters (the tail of
	// the canonical order) leave the federated update entirely — each
	// client trains a private copy seeded from the supernet's initial head.
	// Only the shared body steps: head gradients never enter the merge, and
	// stepping the full list would still weight-decay the global head
	// toward zero.
	if spec != nil && spec.Personalize {
		s.personalize = true
		s.headLR = spec.HeadLR
		if s.headLR <= 0 {
			s.headLR = cfg.ThetaLR
		}
		s.headStart = len(netParams) - len(net.HeadParams())
		s.headInit = nn.CloneParamValues(netParams[s.headStart:])
		s.heads = make(map[int][]*tensor.Tensor)
		stepParams = netParams[:s.headStart]
	}
	// Δ covers whichever is larger: the configured threshold or the worst
	// delay the schedule can actually produce (the default
	// StalenessThreshold of 0 leaves it entirely to the schedule).
	runSpec := cfg.Spec
	if d := cfg.Staleness.MaxDelay(); d > runSpec.StalenessThreshold {
		runSpec.StalenessThreshold = d
	}
	s.core, err = round.New(round.Config{
		Spec: runSpec, Enrolled: cfg.K, Supernet: net, RNG: rng, Pool: s.pool,
		StepParams: stepParams,
	}, inProcess{s})
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	s.core.SetTelemetry(nil, s.met)
	if s.core.Sampler().Full() {
		// Full-population mode materializes everyone up front (the legacy
		// behavior).
		if _, err := pop.All(); err != nil {
			return nil, fmt.Errorf("search: %w", err)
		}
	}
	// All round-scoped state is sized by the cohort, not the population:
	// scratch/merge buffers are keyed by cohort position and handed to
	// whichever participant occupies that position each round, so enrolled
	// K can grow 1000× without growing resident memory.
	cohortLen := s.core.Sampler().Size()
	s.slots = make([]fed.Slot, cohortLen)
	s.sampled = make([]nas.Gates, cohortLen)
	s.sizes = make([]int64, cohortLen)
	s.bw = make([]float64, cohortLen)
	s.results = make([]round.Reply, cohortLen)
	net.SetTraining(true)

	nrep := s.pool.Workers()
	if nrep > cohortLen {
		nrep = cohortLen
	}
	s.replicas = make([]*fed.Replica, nrep)
	for i := range s.replicas {
		// Structure is all that matters (weights are restored every step),
		// so reuse the primary network's init seed.
		if s.replicas[i], err = fed.NewReplica(cfg.Seed+202, cfg.Net); err != nil {
			return nil, fmt.Errorf("search: worker replica %d: %w", i, err)
		}
	}
	return s, nil
}

// SetTelemetry attaches a span tracer and a metric registry to the search.
// Both may be nil: a nil tracer disables tracing at zero cost, and a nil
// registry keeps the private one created by New. Call it before Warmup/Run;
// rebinding mid-search restarts the Stats façade from the new registry's
// counter values.
func (s *Search) SetTelemetry(tracer *telemetry.Tracer, reg *telemetry.Registry) {
	s.tracer = tracer
	// A traced search gets a trace ID up front so every round opens a span
	// and phase events correlate in cmd/fedtrace.
	s.tracer.EnsureTraceID()
	if reg != nil {
		s.met = telemetry.NewRoundMetrics(reg)
		s.Stats = s.statsFromCounters()
		s.pool.Observe(reg)
	}
	s.core.SetTelemetry(s.tracer, s.met)
}

// statsFromCounters materializes the RoundStats façade from the registry.
func (s *Search) statsFromCounters() RoundStats {
	return RoundStats{
		Fresh:   int(s.met.RepliesFresh.Value()),
		Late:    int(s.met.RepliesLate.Value()),
		Dropped: int(s.met.RepliesDropped.Value()),
		Offline: int(s.met.Offline.Value()),
	}
}

// Dataset exposes the generated dataset (for retraining and evaluation).
func (s *Search) Dataset() *data.Dataset { return s.ds }

// Participants exposes the participant population, materializing any not
// yet built. Cohort-mode callers that only need counts should prefer
// Population to keep the registry lazy.
func (s *Search) Participants() []*fed.Participant {
	// New validated every shard non-empty, so materialization cannot fail.
	parts, _ := s.pop.All()
	return parts
}

// Population exposes the lazy participant registry.
func (s *Search) Population() *fed.Population { return s.pop }

// CohortSize returns the number of participants sampled each round (K
// when cohort sampling is off).
func (s *Search) CohortSize() int { return s.core.Sampler().Size() }

// CohortFor returns the cohort the sampler assigns to a round, sorted
// ascending. The schedule is a pure function of the run seed, so the
// result is the same whether the round has run, will run, or never runs —
// and in particular is independent of churn, staleness, and every other
// consumer of randomness.
func (s *Search) CohortFor(round int) []int { return s.core.Sampler().Cohort(round) }

// Supernet exposes the supernet under search.
func (s *Search) Supernet() *nas.Supernet { return s.net }

// Controller exposes the RL controller.
func (s *Search) Controller() *controller.Controller { return s.core.Controller() }

// AttachTraces assigns bandwidth traces to the participant population
// (positionally, applied lazily as participants materialize).
func (s *Search) AttachTraces(traces []nettrace.Trace) error {
	if len(traces) != s.pop.Len() {
		return fmt.Errorf("fed: %d traces for %d participants", len(traces), s.pop.Len())
	}
	s.pop.SetTraceFn(func(k int) nettrace.Trace { return traces[k] })
	return nil
}

// SetSpeedFactors assigns per-participant compute speed factors (Table V's
// device classes); a single value is broadcast to everyone.
func (s *Search) SetSpeedFactors(factors ...float64) error {
	switch len(factors) {
	case 1:
		s.pop.SetSpeedFn(func(int) float64 { return factors[0] })
	case s.pop.Len():
		s.pop.SetSpeedFn(func(k int) float64 { return factors[k] })
	default:
		return fmt.Errorf("search: %d speed factors for %d participants", len(factors), s.pop.Len())
	}
	return nil
}

// SnapshotTheta deep-copies the current supernet weights (used to share one
// warmed-up supernet across strategy comparisons, as Fig. 8 does).
func (s *Search) SnapshotTheta() []*tensor.Tensor {
	return nn.CloneParamValues(s.net.Params())
}

// RestoreTheta loads supernet weights from a snapshot.
func (s *Search) RestoreTheta(snap []*tensor.Tensor) error {
	return nn.RestoreParamValues(s.net.Params(), snap)
}

// Warmup runs P1: cfg.WarmupSteps rounds training θ only, sampling
// architectures uniformly (α frozen at its uniform initialization).
func (s *Search) Warmup() error {
	for i := 0; i < s.cfg.WarmupSteps; i++ {
		if _, err := s.stepPhase(PhaseWarmup); err != nil {
			return err
		}
	}
	return nil
}

// Run executes P2: cfg.SearchSteps rounds of Alg. 1.
func (s *Search) Run() error {
	for i := 0; i < s.cfg.SearchSteps; i++ {
		if _, err := s.stepPhase(PhaseSearch); err != nil {
			return err
		}
	}
	return nil
}

// Derive returns the argmax genotype under the current policy.
func (s *Search) Derive() nas.Genotype { return s.core.Derive() }

// TotalSeconds returns the virtual time consumed by all rounds so far.
func (s *Search) TotalSeconds() float64 {
	total := 0.0
	for _, v := range s.RoundSeconds {
		total += v
	}
	return total
}

// MeanSubModelBytes returns the average shipped sub-model payload.
func (s *Search) MeanSubModelBytes() int64 {
	if len(s.SubModelBytes) == 0 {
		return 0
	}
	var total int64
	for _, b := range s.SubModelBytes {
		total += b
	}
	return total / int64(len(s.SubModelBytes))
}

// RoundStats tallies how participant updates were handled.
type RoundStats struct {
	// Fresh counts updates computed against the current round's state.
	Fresh int
	// Late counts stale-but-within-threshold updates that were applied
	// (with or without delay compensation, per the strategy).
	Late int
	// Dropped counts updates beyond the staleness threshold or discarded
	// by the Throw strategy.
	Dropped int
	// Offline counts participants skipped by churn.
	Offline int
}

// RoundReport is the per-round summary delivered to Search.Observer.
type RoundReport struct {
	Round        int
	MeanAccuracy float64
	Entropy      float64
	Baseline     float64
	Seconds      float64
	Stats        RoundStats // this round only
}

// runRound executes one communication round of Alg. 1 — the core's Step over
// the in-process transport — and returns the mean training accuracy of the
// participants' sub-models.
func (s *Search) runRound(updateAlpha, updateTheta bool) (float64, error) {
	rep, err := s.core.Step(context.Background(), s.round, updateTheta, updateAlpha)
	if err != nil {
		return 0, err
	}
	s.RoundSeconds = append(s.RoundSeconds, rep.Seconds)
	s.Stats = s.statsFromCounters()
	if s.Observer != nil {
		s.Observer(RoundReport{
			Round:        rep.Round,
			MeanAccuracy: rep.Accuracy,
			Entropy:      s.Controller().Entropy(),
			Baseline:     s.Controller().Baseline(),
			Seconds:      rep.Seconds,
			Stats:        RoundStats{Fresh: rep.Fresh, Late: rep.Late, Dropped: rep.Dropped, Offline: rep.Offline},
		})
	}
	s.round++
	return rep.Accuracy, nil
}

// Partition exposes the training-data partition (per-client evaluation
// derives each client's test distribution from it).
func (s *Search) Partition() data.Partition { return s.partition }

// Profiles returns the scenario's resolved device profiles and the
// per-participant profile assignment (nil, nil without a scenario
// population).
func (s *Search) Profiles() ([]scenario.Profile, []int) { return s.profiles, s.profileOf }

// Personalized reports whether the search runs in federated-body /
// local-head mode.
func (s *Search) Personalized() bool { return s.personalize }

// ensureHead materializes participant pid's personal classifier head on
// first sample: a copy of the supernet's INITIAL head, so the result is
// independent of when (or in what order) clients are first drawn.
func (s *Search) ensureHead(pid int) {
	if s.heads[pid] != nil {
		return
	}
	head := make([]*tensor.Tensor, len(s.headInit))
	for i, t := range s.headInit {
		head[i] = t.Clone()
	}
	s.heads[pid] = head
}

// ArgmaxGates returns the per-edge argmax candidate under the current
// policy — the deterministic derived sub-model as a gate vector, suitable
// for ForwardSampled evaluation.
func (s *Search) ArgmaxGates() nas.Gates {
	pn, pr := s.Controller().Probs()
	g := nas.Gates{Normal: make([]int, len(pn)), Reduce: make([]int, len(pr))}
	for e, row := range pn {
		g.Normal[e] = argmaxOf(row)
	}
	for e, row := range pr {
		g.Reduce[e] = argmaxOf(row)
	}
	return g
}

func argmaxOf(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// EvalGates measures top-1 accuracy of the gated sub-model on the given
// test indices. pid >= 0 swaps that client's personal head in for the
// measurement (personalized runs only; an unsampled client falls back to
// the shared head); pid < 0 evaluates the shared global head.
func (s *Search) EvalGates(g nas.Gates, testIdx []int, batchSize int, pid int) float64 {
	if len(testIdx) == 0 || batchSize <= 0 {
		return 0
	}
	s.net.SetTraining(false)
	defer s.net.SetTraining(true)
	if head := s.heads[pid]; head != nil { // never for pid < 0 or without heads
		tail := s.net.Params()[s.headStart:]
		s.evalHead = nn.SnapshotParamValues(s.evalHead, tail)
		for i, t := range head {
			tail[i].Value.CopyFrom(t)
		}
		defer nn.RestoreParamValues(tail, s.evalHead)
	}
	correct := 0.0
	for start := 0; start < len(testIdx); start += batchSize {
		end := min(start+batchSize, len(testIdx))
		x, y := s.evalBatch.Gather(s.ds, testIdx[start:end])
		correct += nn.Accuracy(s.net.ForwardSampled(x, g), y) * float64(end-start)
	}
	return correct / float64(len(testIdx))
}
