package experiments

import (
	"math/rand"

	"fedrlnas/internal/baselines"
	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/search"
)

// participantsFor builds a participant population over ds matching the
// search config's partition settings.
func participantsFor(ds *data.Dataset, kind search.PartitionKind, alpha float64, k int, seed int64) ([]*fed.Participant, error) {
	rng := rand.New(rand.NewSource(seed))
	var part data.Partition
	var err error
	switch kind {
	case search.Dirichlet:
		part, err = data.DirichletPartition(ds.TrainLabels, k, alpha, rng)
	default:
		part, err = data.IIDPartition(ds.NumTrain(), k, rng)
	}
	if err != nil {
		return nil, err
	}
	return fed.BuildParticipants(ds, part, seed+1)
}

// partitionFor builds the raw partition (for baselines that construct their
// own participants).
func partitionFor(ds *data.Dataset, kind search.PartitionKind, alpha float64, k int, seed int64) (data.Partition, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case search.Dirichlet:
		return data.DirichletPartition(ds.TrainLabels, k, alpha, rng)
	default:
		return data.IIDPartition(ds.NumTrain(), k, rng)
	}
}

// fedNASGenotype runs the FedNAS baseline search on cfg's dataset and
// partition, returning its derived genotype.
func fedNASGenotype(cfg search.Config, scale Scale) (nas.Genotype, error) {
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return nas.Genotype{}, err
	}
	part, err := partitionFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, cfg.Seed+5)
	if err != nil {
		return nas.Genotype{}, err
	}
	fcfg := baselines.DefaultFedNASConfig(cfg.Net)
	fcfg.Workers = Workers
	_, s, _, _ := scale.sizes()
	// FedNAS ships the whole supernet each round; at the same round budget
	// it is far more expensive, so the paper runs it for fewer rounds on
	// the same wall-clock budget. We use half the rounds.
	fcfg.Rounds = s / 2
	if fcfg.Rounds < 5 {
		fcfg.Rounds = 5
	}
	fcfg.BatchSize = cfg.BatchSize
	fcfg.Seed = cfg.Seed + 6
	res, err := baselines.FedNAS(ds, part, fcfg)
	if err != nil {
		return nas.Genotype{}, err
	}
	return res.Genotype, nil
}
