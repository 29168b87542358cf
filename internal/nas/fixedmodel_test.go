package nas

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

func TestNewFixedModelShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	geno := Genotype{
		Normal: []OpKind{OpSepConv3, OpIdentity, OpMaxPool3, OpDilConv3, OpAvgPool3},
		Reduce: []OpKind{OpMaxPool3, OpSepConv5, OpIdentity, OpZero, OpSepConv3},
		Nodes:  2,
	}
	m, err := NewFixedModel(rng, cfg, geno)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	out := m.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != cfg.NumClasses {
		t.Fatalf("logits shape %v", out.Shape())
	}
	m.Backward(tensor.New(2, cfg.NumClasses))
	want, err := DerivedParamCount(cfg, geno)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ParamCount(); got != want {
		t.Errorf("ParamCount %d != DerivedParamCount %d", got, want)
	}
}

func TestNewFixedModelRejectsInvalidGenotype(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bad := Genotype{Normal: []OpKind{OpZero}, Reduce: []OpKind{OpZero}, Nodes: 2}
	if _, err := NewFixedModel(rng, testConfig(), bad); err == nil {
		t.Error("expected error for invalid genotype")
	}
}

// The FixedModel parameter order must match the supernet's SampledParams
// order name-for-name and shape-for-shape, for any gate vector: FedAvg over
// RPC trains the sub-model on a participant's supernet replica and ships its
// weights by position into the server's FixedModel.
func TestFixedModelParamOrderMatchesSampledParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		nE, rE := s.ArchSpace()
		gates := Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
		for e := range gates.Normal {
			gates.Normal[e] = rng.Intn(len(cfg.Candidates))
			gates.Reduce[e] = rng.Intn(len(cfg.Candidates))
		}
		m, err := NewFixedModel(rng, cfg, GenotypeFromGates(gates, cfg.Candidates, cfg.Nodes))
		if err != nil {
			t.Fatal(err)
		}
		sub := s.SampledParams(gates)
		fixed := m.Params()
		if len(sub) != len(fixed) {
			t.Fatalf("gates %v: param counts differ: %d vs %d", gates, len(sub), len(fixed))
		}
		for i := range sub {
			if sub[i].Name != fixed[i].Name || !sub[i].Value.SameShape(fixed[i].Value) {
				t.Fatalf("gates %v: param %d is %s %v in the supernet, %s %v in the fixed model",
					gates, i, sub[i].Name, sub[i].Value.Shape(), fixed[i].Name, fixed[i].Value.Shape())
			}
		}
	}
}

func TestFixedModelTrainToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	m, err := NewFixedModel(rng, cfg, Genotype{
		Normal: []OpKind{OpSepConv3, OpSepConv3, OpSepConv3, OpSepConv3, OpSepConv3},
		Reduce: []OpKind{OpSepConv3, OpSepConv3, OpSepConv3, OpSepConv3, OpSepConv3},
		Nodes:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Train-mode forwards differ from eval-mode forwards (batch-stat BN).
	x := tensor.Randn(rng, 1, 4, 3, 8, 8)
	m.SetTraining(true)
	// Clone: Forward returns a module-owned buffer that the second call
	// overwrites (nn's buffer-ownership contract).
	a := m.Forward(x).Clone()
	m.SetTraining(false)
	b := m.Forward(x)
	if a.AllClose(b, 1e-9) {
		t.Error("train/eval forwards identical — SetTraining not propagating")
	}
}

func TestSupernetSharedParamsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := NewSupernet(rng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[*nn.Param]bool)
	for _, p := range s.Params() {
		all[p] = true
	}
	shared := s.SharedParams()
	if len(shared) == 0 {
		t.Fatal("no shared params")
	}
	for _, p := range shared {
		if !all[p] {
			t.Fatalf("shared param %s not in supernet", p.Name)
		}
	}
	// Shared params must be included in every sampled sub-model.
	g := uniformGates(s, 0) // all "none" ops: param-free edges
	sampled := make(map[*nn.Param]bool)
	for _, p := range s.SampledParams(g) {
		sampled[p] = true
	}
	for _, p := range shared {
		if !sampled[p] {
			t.Fatalf("shared param %s missing from sub-model", p.Name)
		}
	}
}
