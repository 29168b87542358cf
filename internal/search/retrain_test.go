package search

import (
	"math"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
)

// retrainFixture is the tiny dataset and a derived genotype the P3 pins
// retrain.
func retrainFixture(t *testing.T) (*data.Dataset, nas.Config, nas.Genotype) {
	t.Helper()
	cfg := tinyConfig()
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	geno := nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpMaxPool3},
		Reduce: []nas.OpKind{nas.OpAvgPool3, nas.OpSepConv3},
		Nodes:  1,
	}
	return ds, cfg.Net, geno
}

// The retrained weights, batch-norm statistics and P4 accuracy of both P3
// variants are pinned to the bit: buffer reuse in the trainers (batch,
// optimizer velocity, deltas, evaluation scratch) must not move a value.
// The federated pin holds at every worker count.
func TestRetrainCentralizedPinned(t *testing.T) {
	ds, netCfg, geno := retrainFixture(t)
	rcfg := DefaultRetrainConfig()
	rcfg.Steps = 40
	rcfg.BatchSize = 16
	res, err := RetrainCentralized(ds, netCfg, geno, rcfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantTheta = 0x9fe392fd6ebd17cd
		wantStats = 0x1164bc5c61804da5
		wantAcc   = 0x3fdd70a3d70a3d71 // 0.46
	)
	theta, stats := nn.ParamHash(res.Model.Params()), nn.StatsHash(res.Model.BatchNorms())
	acc := math.Float64bits(res.TestAcc)
	t.Logf("theta %#x stats %#x acc %#x (%v)", theta, stats, acc, res.TestAcc)
	if theta != wantTheta || stats != wantStats || acc != wantAcc {
		t.Fatalf("central retrain: theta %#x stats %#x acc %#x, want %#x %#x %#x",
			theta, stats, acc, uint64(wantTheta), uint64(wantStats), uint64(wantAcc))
	}
}

func TestRetrainFederatedPinned(t *testing.T) {
	ds, netCfg, geno := retrainFixture(t)
	const (
		wantTheta = 0x6bd16692c30f5ad0
		wantStats = 0x6b84e6c18df18c1e
		wantAcc   = 0x3fd851eb851eb852 // 0.38
	)
	for _, workers := range []int{1, 3} {
		fcfg := fed.DefaultFedAvgConfig()
		fcfg.Rounds = 8
		fcfg.BatchSize = 8
		fcfg.EvalEvery = 3
		fcfg.Workers = workers
		res, _, err := RetrainFederated(ds, netCfg, geno, Dirichlet, 0.5, 4, fcfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		theta, stats := nn.ParamHash(res.Model.Params()), nn.StatsHash(res.Model.BatchNorms())
		acc := math.Float64bits(res.TestAcc)
		t.Logf("workers=%d: theta %#x stats %#x acc %#x (%v)", workers, theta, stats, acc, res.TestAcc)
		if theta != wantTheta || stats != wantStats || acc != wantAcc {
			t.Fatalf("workers=%d federated retrain: theta %#x stats %#x acc %#x, want %#x %#x %#x",
				workers, theta, stats, acc, uint64(wantTheta), uint64(wantStats), uint64(wantAcc))
		}
	}
}
