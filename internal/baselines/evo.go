package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
)

// EvoConfig configures the EvoFedNAS baseline (Zhu & Jin): a population of
// candidate architectures sharing one supernet's weights, trained by the
// participants and evolved on the server.
type EvoConfig struct {
	Net       nas.Config
	Rounds    int
	BatchSize int

	// Population is the number of candidate genotypes.
	Population int
	// GenerationEvery is how many rounds pass between evolution steps
	// (at least 1).
	GenerationEvery int
	// MutationRate is the per-edge probability of resampling an op.
	MutationRate float64
	// FitnessDecay is the EMA factor of per-candidate fitness.
	FitnessDecay float64

	ThetaLR       float64
	ThetaMomentum float64
	ThetaWD       float64
	ThetaClip     float64

	// Workers caps how many participants' local steps run concurrently;
	// 0 selects runtime.NumCPU(). Results are bit-identical at every
	// worker count.
	Workers int

	Seed int64
}

// DefaultEvoConfig returns substrate-scale EvoFedNAS settings.
func DefaultEvoConfig(net nas.Config) EvoConfig {
	return EvoConfig{
		Net: net, Rounds: 60, BatchSize: 16,
		Population: 8, GenerationEvery: 10, MutationRate: 0.2, FitnessDecay: 0.5,
		ThetaLR: 0.025, ThetaMomentum: 0.9, ThetaWD: 3e-4, ThetaClip: 5,
		Seed: 1,
	}
}

// EvoVariant selects the paper's "big" vs "small" EvoFedNAS search spaces.
type EvoVariant int

// Variants.
const (
	// EvoBig searches the full candidate set on a wider supernet.
	EvoBig EvoVariant = iota + 1
	// EvoSmall searches a restricted, convolution-free candidate set —
	// cheap but weak, matching the paper's EvoFedNAS(small) row.
	EvoSmall
)

// ApplyVariant adapts a network config to the variant.
func (v EvoVariant) ApplyVariant(net nas.Config) nas.Config {
	switch v {
	case EvoBig:
		net.C *= 2
		net.Candidates = append([]nas.OpKind(nil), nas.AllOps...)
	case EvoSmall:
		net.Candidates = []nas.OpKind{
			nas.OpZero, nas.OpIdentity, nas.OpMaxPool3, nas.OpAvgPool3,
		}
	}
	return net
}

// String implements fmt.Stringer.
func (v EvoVariant) String() string {
	switch v {
	case EvoBig:
		return "evofednas-big"
	case EvoSmall:
		return "evofednas-small"
	default:
		return fmt.Sprintf("evo(%d)", int(v))
	}
}

type evoCandidate struct {
	gates   nas.Gates
	fitness float64
	seen    bool
}

// EvoFedNAS runs the evolutionary federated search: each round every
// participant trains one population member's sub-model on its shard (shared
// supernet weights, FedAvg-style gradient averaging); fitness is an EMA of
// training accuracy; every GenerationEvery rounds the weakest half of the
// population is replaced by mutated tournament winners.
func EvoFedNAS(ds *data.Dataset, part data.Partition, cfg EvoConfig) (NASResult, error) {
	if cfg.Rounds <= 0 || cfg.BatchSize <= 0 || cfg.Population < 2 || cfg.GenerationEvery <= 0 {
		return NASResult{}, fmt.Errorf("baselines: invalid Evo config %+v", cfg)
	}
	parts, err := fed.BuildParticipants(ds, part, cfg.Seed+17)
	if err != nil {
		return NASResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := nas.NewSupernet(rand.New(rand.NewSource(cfg.Seed+1)), cfg.Net)
	if err != nil {
		return NASResult{}, err
	}
	run, err := newFedRun(net, parts, cfg.Workers, cfg.Seed+1, cfg.Net)
	if err != nil {
		return NASResult{}, err
	}
	opt := nn.NewSGD(cfg.ThetaLR, cfg.ThetaMomentum, cfg.ThetaWD, cfg.ThetaClip)

	// Random initial population.
	nE, rE := net.ArchSpace()
	numCand := net.NumCandidates()
	pop := make([]*evoCandidate, cfg.Population)
	for i := range pop {
		pop[i] = &evoCandidate{gates: randomGates(rng, nE, rE, numCand)}
	}

	res := NASResult{Method: "evofednas"}
	var totalPayload int64
	var sub []*nn.Param

	inv := 1.0 / float64(len(parts))
	for round := 0; round < cfg.Rounds; round++ {
		// Participant k trains candidate cand(k). Tasks only read its gates;
		// fitness folds in the merge, in participant order — with K >
		// Population the same candidate trains twice in a round.
		cand := func(k int) *evoCandidate { return pop[(k+round*len(parts))%len(pop)] }
		err := run.train(func(rep *fed.Replica, k int, sl *fed.Slot) error {
			st := fed.Step{Gates: cand(k).gates, Theta: run.theta, BatchSize: cfg.BatchSize}
			return rep.Train(ds, parts[k], st, sl)
		})
		if err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		roundAcc, roundSeconds := 0.0, 0.0
		for k, p := range parts {
			sl := run.merge(k)
			c := cand(k)
			if c.seen {
				c.fitness = cfg.FitnessDecay*sl.Acc + (1-cfg.FitnessDecay)*c.fitness
			} else {
				c.fitness = sl.Acc
				c.seen = true
			}
			roundAcc += sl.Acc

			sub = net.AppendSampledParams(sub[:0], c.gates)
			payload := nn.ParamBytes(sub)
			totalPayload += payload
			comm := 2 * nettrace.TransferSeconds(payload, 100)
			roundSeconds = max(roundSeconds, comm+p.ComputeSeconds(sl.Size, cfg.BatchSize))
		}
		run.step(opt, inv)
		res.Curve.Add(round, roundAcc*inv)
		res.SearchSeconds += roundSeconds

		if (round+1)%cfg.GenerationEvery == 0 {
			evolve(pop, rng, cfg.MutationRate, numCand)
		}
	}
	best := pop[0]
	for _, c := range pop[1:] {
		if c.fitness > best.fitness {
			best = c
		}
	}
	res.Genotype = nas.GenotypeFromGates(best.gates, cfg.Net.Candidates, cfg.Net.Nodes)
	res.PayloadBytesPerRound = totalPayload / int64(cfg.Rounds*len(parts))
	return res, nil
}

// evolve replaces the weakest half of the population with mutated copies of
// binary-tournament winners.
func evolve(pop []*evoCandidate, rng *rand.Rand, mutationRate float64, numCand int) {
	sort.Slice(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
	half := len(pop) / 2
	for i := half; i < len(pop); i++ {
		a, b := pop[rng.Intn(half)], pop[rng.Intn(half)]
		parent := a
		if b.fitness > a.fitness {
			parent = b
		}
		child := nas.CloneGates(parent.gates)
		mutate(child.Normal, rng, mutationRate, numCand)
		mutate(child.Reduce, rng, mutationRate, numCand)
		pop[i] = &evoCandidate{gates: child, fitness: parent.fitness * 0.9}
	}
}

func mutate(gates []int, rng *rand.Rand, rate float64, numCand int) {
	for e := range gates {
		if rng.Float64() < rate {
			gates[e] = rng.Intn(numCand)
		}
	}
}

func randomGates(rng *rand.Rand, nE, rE, numCand int) nas.Gates {
	g := nas.Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
	for i := range g.Normal {
		g.Normal[i] = rng.Intn(numCand)
	}
	for i := range g.Reduce {
		g.Reduce[i] = rng.Intn(numCand)
	}
	return g
}
