package nas

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

func testConfig() Config {
	return Config{
		InChannels: 3,
		NumClasses: 4,
		C:          4,
		Layers:     3,
		Nodes:      2,
		Candidates: AllOps,
	}
}

func uniformGates(s *Supernet, k int) Gates {
	nE, rE := s.ArchSpace()
	g := Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
	for i := range g.Normal {
		g.Normal[i] = k
	}
	for i := range g.Reduce {
		g.Reduce[i] = k
	}
	return g
}

func TestNumEdges(t *testing.T) {
	cases := []struct{ b, want int }{{1, 2}, {2, 5}, {3, 9}, {4, 14}}
	for _, tc := range cases {
		if got := NumEdges(tc.b); got != tc.want {
			t.Errorf("NumEdges(%d) = %d, want %d", tc.b, got, tc.want)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range AllOps {
		if k.String() == "" || k.String()[0] == 'o' && k.String()[1] == 'p' {
			t.Errorf("op %d has placeholder string %q", int(k), k.String())
		}
	}
	if len(AllOps) != NumOps {
		t.Errorf("AllOps has %d entries, want %d", len(AllOps), NumOps)
	}
}

func TestEveryOpPreservesShapeStride1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 2, 4, 6, 6)
	for _, k := range AllOps {
		op := NewOp(k, "t", rng, 4, 1)
		out := op.Forward(x)
		if out.Dim(0) != 2 || out.Dim(1) != 4 || out.Dim(2) != 6 || out.Dim(3) != 6 {
			t.Errorf("%s stride-1 output shape %v, want [2 4 6 6]", k, out.Shape())
		}
	}
}

func TestEveryOpHalvesShapeStride2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 1, 4, 6, 6)
	for _, k := range AllOps {
		op := NewOp(k, "t", rng, 4, 2)
		out := op.Forward(x)
		if out.Dim(2) != 3 || out.Dim(3) != 3 {
			t.Errorf("%s stride-2 output shape %v, want spatial 3x3", k, out.Shape())
		}
	}
}

func TestConcatSplitInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.Randn(rng, 1, 2, 3, 4, 4)
	b := tensor.Randn(rng, 1, 2, 3, 4, 4)
	cat := tensor.New(2, 6, 4, 4)
	concatChannelsInto(cat, []*tensor.Tensor{a, b})
	parts := []*tensor.Tensor{tensor.New(2, 3, 4, 4), tensor.New(2, 3, 4, 4)}
	splitChannelsInto(parts, cat, 2, 3)
	if !parts[0].AllClose(a, 0) || !parts[1].AllClose(b, 0) {
		t.Error("splitChannelsInto is not the inverse of concatChannelsInto")
	}
}

func TestSupernetForwardSampledShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, err := NewSupernet(rng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := uniformGates(s, 4) // sep_conv_3x3 everywhere
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	out := s.ForwardSampled(x, g)
	if out.Dim(0) != 2 || out.Dim(1) != 4 {
		t.Errorf("logits shape %v, want [2 4]", out.Shape())
	}
}

func TestSupernetMixedMatchesSampledWhenOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := NewSupernet(rng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTraining(false) // freeze BN running stats for comparability
	g := uniformGates(s, 1)
	nE, rE := s.ArchSpace()
	oneHot := func(edges int) [][]float64 {
		rows := make([][]float64, edges)
		for i := range rows {
			rows[i] = make([]float64, NumOps)
			rows[i][1] = 1
		}
		return rows
	}
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	a := s.ForwardSampled(x, g).Clone() // the next forward rewrites the logits
	b := s.ForwardMixed(x, oneHot(nE), oneHot(rE))
	if !a.AllClose(b, 1e-9) {
		t.Error("one-hot mixed forward must equal sampled forward")
	}
}

func TestSupernetSampledGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig()
	cfg.Layers = 2
	cfg.C = 3
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep training mode: batch-stat BN moves activations off exact ReLU
	// kinks (a bias-free conv on dead inputs emits exact zeros, which a
	// fresh eval-mode BN would park right on the kink and break FD).
	g := uniformGates(s, 4)
	x := tensor.Randn(rng, 1, 2, 3, 6, 6)
	labels := []int{0, 3}
	lossAt := func() float64 {
		res, err := nn.CrossEntropy(s.ForwardSampled(x, g), labels)
		if err != nil {
			t.Fatal(err)
		}
		return res.Loss
	}
	params := s.SampledParams(g)
	nn.ZeroGrads(s.Params())
	res, err := nn.CrossEntropy(s.ForwardSampled(x, g), labels)
	if err != nil {
		t.Fatal(err)
	}
	s.BackwardSampled(res.GradLogits)

	const eps = 1e-5
	checked := 0
	for _, p := range params {
		pd := p.Value.Data()
		for i := 0; i < len(pd); i += 37 { // sample indices for speed
			orig := pd[i]
			pd[i] = orig + eps
			up := lossAt()
			pd[i] = orig - eps
			down := lossAt()
			pd[i] = orig
			num := (up - down) / (2 * eps)
			ana := p.Grad.Data()[i]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %v numeric %v", p.Name, i, ana, num)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestSubModelMuchSmallerThanSupernet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := NewSupernet(rng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := uniformGates(s, 4)
	sub, super := s.SubModelBytes(g), s.SupernetBytes()
	if sub >= super {
		t.Fatalf("sub-model %d B >= supernet %d B", sub, super)
	}
	// The paper claims roughly N× savings on edge params; with shared
	// stem/pre/head the overall factor is smaller but must still be large.
	if ratio := float64(super) / float64(sub); ratio < 2 {
		t.Errorf("supernet/sub-model ratio %.2f too small", ratio)
	}
}

func TestSampledParamsSubsetOfParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, err := NewSupernet(rng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[*nn.Param]bool)
	for _, p := range s.Params() {
		all[p] = true
	}
	g := uniformGates(s, 6)
	for _, p := range s.SampledParams(g) {
		if !all[p] {
			t.Fatalf("sampled param %s not in supernet params", p.Name)
		}
	}
}

func TestGenotypeRoundTrip(t *testing.T) {
	g := Genotype{
		Normal: []OpKind{OpIdentity, OpSepConv3, OpZero, OpMaxPool3, OpDilConv5},
		Reduce: []OpKind{OpAvgPool3, OpSepConv5, OpDilConv3, OpIdentity, OpZero},
		Nodes:  2,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	gates, err := g.GatesFor(AllOps)
	if err != nil {
		t.Fatal(err)
	}
	back := GenotypeFromGates(gates, AllOps, 2)
	for i := range g.Normal {
		if back.Normal[i] != g.Normal[i] || back.Reduce[i] != g.Reduce[i] {
			t.Fatalf("round trip mismatch at edge %d", i)
		}
	}
}

func TestGenotypeValidateRejectsWrongLength(t *testing.T) {
	g := Genotype{Normal: []OpKind{OpZero}, Reduce: []OpKind{OpZero}, Nodes: 2}
	if err := g.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

func TestGatesForRejectsUnknownOp(t *testing.T) {
	g := Genotype{
		Normal: []OpKind{OpSepConv5, OpSepConv5},
		Reduce: []OpKind{OpSepConv5, OpSepConv5},
		Nodes:  1,
	}
	if _, err := g.GatesFor([]OpKind{OpZero, OpIdentity}); err == nil {
		t.Error("expected error for op outside candidate set")
	}
}

func TestDeriveGenotypeArgmax(t *testing.T) {
	probs := [][]float64{
		{0.1, 0.9},
		{0.8, 0.2},
	}
	g := DeriveGenotype(probs, probs, []OpKind{OpZero, OpSepConv3}, 1)
	if g.Normal[0] != OpSepConv3 || g.Normal[1] != OpZero {
		t.Errorf("derived %v", g.Normal)
	}
}

func TestDerivedParamCountMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig()
	geno := Genotype{
		Normal: []OpKind{OpSepConv3, OpIdentity, OpSepConv5, OpMaxPool3, OpDilConv3},
		Reduce: []OpKind{OpMaxPool3, OpSepConv3, OpIdentity, OpDilConv5, OpAvgPool3},
		Nodes:  2,
	}
	want, err := DerivedParamCount(cfg, geno)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize a supernet and count only sampled params.
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gates, err := geno.GatesFor(AllOps)
	if err != nil {
		t.Fatal(err)
	}
	got := nn.ParamCount(s.SampledParams(gates))
	if got != want {
		t.Errorf("DerivedParamCount = %d, materialized = %d", want, got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{InChannels: 3, NumClasses: 1, C: 4, Layers: 1, Nodes: 1, Candidates: AllOps},
		{InChannels: 3, NumClasses: 2, C: 0, Layers: 1, Nodes: 1, Candidates: AllOps},
		{InChannels: 3, NumClasses: 2, C: 4, Layers: 1, Nodes: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestConfigCheckGates(t *testing.T) {
	cfg := testConfig() // 2 nodes: 5 edges per cell, 8 candidates
	valid := func() Gates { return Gates{Normal: []int{0, 1, 2, 3, 7}, Reduce: []int{7, 6, 5, 4, 0}} }
	if err := cfg.CheckGates(valid()); err != nil {
		t.Fatalf("valid gates rejected: %v", err)
	}
	for name, mut := range map[string]func(*Gates){
		"out of range": func(g *Gates) { g.Normal[4] = 99 },
		"one past end": func(g *Gates) { g.Reduce[0] = len(cfg.Candidates) },
		"negative":     func(g *Gates) { g.Reduce[2] = -1 },
		"short":        func(g *Gates) { g.Normal = g.Normal[:4] },
		"long":         func(g *Gates) { g.Reduce = append(g.Reduce, 0) },
		"empty":        func(g *Gates) { *g = Gates{} },
	} {
		g := valid()
		mut(&g)
		if err := cfg.CheckGates(g); err == nil {
			t.Errorf("%s: gates %v accepted", name, g)
		}
	}
}

func TestReductionLayers(t *testing.T) {
	cfg := Config{Layers: 9}
	red := cfg.ReductionLayers()
	if !red[3] || !red[6] || len(red) != 2 {
		t.Errorf("layers=9 reductions %v, want {3,6}", red)
	}
	cfg = Config{Layers: 2}
	if red := cfg.ReductionLayers(); !red[1] {
		t.Errorf("layers=2 reductions %v, want {1}", red)
	}
	cfg = Config{Layers: 1}
	if red := cfg.ReductionLayers(); len(red) != 0 {
		t.Errorf("layers=1 reductions %v, want none", red)
	}
}

// Training a sampled sub-model end to end must reduce the loss.
func TestSampledTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := testConfig()
	cfg.Layers = 2
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := uniformGates(s, 4)
	n := 8
	x := tensor.New(n, 3, 8, 8)
	labels := make([]int, n)
	for b := 0; b < n; b++ {
		labels[b] = b % cfg.NumClasses
		for i := 0; i < 3*8*8; i++ {
			x.Data()[b*3*8*8+i] = float64(labels[b])*0.5 + 0.2*rng.NormFloat64()
		}
	}
	opt := nn.NewSGD(0.05, 0.9, 3e-4, 5)
	var first, last float64
	for step := 0; step < 25; step++ {
		nn.ZeroGrads(s.Params())
		res, err := nn.CrossEntropy(s.ForwardSampled(x, g), labels)
		if err != nil {
			t.Fatal(err)
		}
		s.BackwardSampled(res.GradLogits)
		opt.Step(s.SampledParams(g))
		if step == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Errorf("sampled training did not reduce loss: %v -> %v", first, last)
	}
}

func TestCloneGatesIsDeep(t *testing.T) {
	g := Gates{Normal: []int{1, 2}, Reduce: []int{3}}
	c := CloneGates(g)
	c.Normal[0] = 9
	if g.Normal[0] != 1 {
		t.Error("CloneGates must deep-copy")
	}
}

func TestMixedBackwardProbSensitivity(t *testing.T) {
	// dL/dp_k from BackwardMixed must match finite differences of the blend.
	rng := rand.New(rand.NewSource(11))
	m := newMixedOp("e", rng, []OpKind{OpIdentity, OpSepConv3}, 3, 1)
	nn.SetTraining(false, m.ops...)
	x := tensor.Randn(rng, 1, 1, 3, 5, 5)
	probs := []float64{0.3, 0.7}
	out := m.ForwardMixed(x, probs)
	seed := tensor.Randn(rng, 1, out.Shape()...)
	_, dProbs := m.BackwardMixed(seed)
	const eps = 1e-6
	for k := range probs {
		probs[k] += eps
		up := m.ForwardMixed(x, probs).Dot(seed)
		probs[k] -= 2 * eps
		down := m.ForwardMixed(x, probs).Dot(seed)
		probs[k] += eps
		num := (up - down) / (2 * eps)
		if math.Abs(num-dProbs[k]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("dProbs[%d]: analytic %v numeric %v", k, dProbs[k], num)
		}
	}
}

func TestGenotypeJSONRoundTrip(t *testing.T) {
	g := Genotype{
		Normal: []OpKind{OpSepConv3, OpIdentity, OpZero, OpMaxPool3, OpDilConv5},
		Reduce: []OpKind{OpAvgPool3, OpSepConv5, OpDilConv3, OpIdentity, OpZero},
		Nodes:  2,
	}
	path := t.TempDir() + "/geno.json"
	if err := SaveGenotype(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGenotype(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != g.String() {
		t.Errorf("round trip mismatch:\n%s\n%s", g, back)
	}
}

func TestSaveGenotypeRejectsInvalid(t *testing.T) {
	bad := Genotype{Normal: []OpKind{OpZero}, Reduce: []OpKind{OpZero}, Nodes: 2}
	if err := SaveGenotype(t.TempDir()+"/x.json", bad); err == nil {
		t.Error("expected error for invalid genotype")
	}
}

func TestLoadGenotypeErrors(t *testing.T) {
	if _, err := LoadGenotype(t.TempDir() + "/missing.json"); err == nil {
		t.Error("expected error for missing file")
	}
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := osWriteFile(bad, []byte(`{"nodes":1,"normal":["warp_drive","none"],"reduce":["none","none"]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGenotype(bad); err == nil {
		t.Error("expected error for unknown op name")
	}
}

func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
