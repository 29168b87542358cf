// Package fedrlnas's top-level benchmark harness regenerates every table
// and figure from the paper's evaluation section (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured notes), plus
// ablation and substrate micro-benchmarks.
//
// Usage:
//
//	go test -bench=. -benchmem                  # quick scale (default)
//	FEDRLNAS_SCALE=full go test -bench=Table2   # paper-scale run
//
// Each paper-artifact benchmark runs the experiment once per iteration and
// logs the regenerated table/curves on the first iteration.
package fedrlnas

import (
	"math/rand"
	"os"
	"testing"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/experiments"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
)

func benchScale() experiments.Scale {
	if os.Getenv("FEDRLNAS_SCALE") == "full" {
		return experiments.Full
	}
	return experiments.Quick
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, scale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			b.Logf("\n%s", out.Render())
		}
	}
}

// --- Paper figures ---

func BenchmarkFig3WarmupPhase(b *testing.B)       { runExperiment(b, "fig3") }
func BenchmarkFig4SearchPhase(b *testing.B)       { runExperiment(b, "fig4") }
func BenchmarkFig5AlphaOnly(b *testing.B)         { runExperiment(b, "fig5") }
func BenchmarkFig6NonIIDSearch(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7AdaptiveLatency(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8Staleness(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9Convergence(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10ConvergenceSVHN(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11TransferCurves(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12ParticipantCount(b *testing.B) { runExperiment(b, "fig12") }

// --- Paper tables ---

func BenchmarkTable2Centralized(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkTable3Federated(b *testing.B)      { runExperiment(b, "table3") }
func BenchmarkTable4NonIID(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkTable5SearchTime(b *testing.B)     { runExperiment(b, "table5") }
func BenchmarkTable6Participants(b *testing.B)   { runExperiment(b, "table6") }
func BenchmarkTable7Transfer(b *testing.B)       { runExperiment(b, "table7") }
func BenchmarkTable8TransferNonIID(b *testing.B) { runExperiment(b, "table8") }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationBaseline compares search with and without the Eq. 8
// moving-average reward baseline.
func BenchmarkAblationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(disable bool) float64 {
			cfg := search.DefaultConfig()
			cfg.WarmupSteps, cfg.SearchSteps = 10, 30
			cfg.Alpha.DisableBaseline = disable
			s, err := search.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Warmup(); err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			return s.SearchCurve.TailMean(10)
		}
		with, without := run(false), run(true)
		if i == 0 {
			b.Logf("baseline on: tail %.3f | baseline off: tail %.3f", with, without)
		}
	}
}

// BenchmarkAblationLambda sweeps the delay-compensation strength λ under
// severe staleness.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lambda := range []float64{0, 0.5, 1, 2} {
			cfg := search.DefaultConfig()
			cfg.WarmupSteps, cfg.SearchSteps = 10, 30
			cfg.Staleness = staleness.Severe()
			cfg.Strategy = staleness.DC
			cfg.Lambda = lambda
			s, err := search.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Warmup(); err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("lambda %.1f: tail %.3f", lambda, s.SearchCurve.TailMean(10))
			}
		}
	}
}

// BenchmarkAblationAlphaGradAnalytic measures the analytic Eq. 12 gradient
// against a finite-difference of LogProb — the efficiency claim behind the
// paper's "easy-to-compute" transformation.
func BenchmarkAblationAlphaGradAnalytic(b *testing.B) {
	ctrl, err := controller.New(14, 14, nas.NumOps, controller.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := ctrl.SampleGates(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.LogProbGrad(g)
	}
}

// BenchmarkAblationGradAveraging compares one local step per round (the
// closest FedAvg comes to the search's gradient averaging) with several
// local steps of model-averaging FedAvg on the same fixed model.
func BenchmarkAblationGradAveraging(b *testing.B) {
	spec := data.CIFAR10S()
	ds, err := data.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, localSteps := range []int{1, 4} {
			rng := rand.New(rand.NewSource(3))
			part, err := data.IIDPartition(ds.NumTrain(), 10, rng)
			if err != nil {
				b.Fatal(err)
			}
			parts, err := fed.BuildParticipants(ds, part, 4)
			if err != nil {
				b.Fatal(err)
			}
			geno := nas.Genotype{
				Normal: []nas.OpKind{nas.OpSepConv3, nas.OpIdentity, nas.OpSepConv3, nas.OpMaxPool3, nas.OpSepConv5},
				Reduce: []nas.OpKind{nas.OpMaxPool3, nas.OpSepConv3, nas.OpIdentity, nas.OpAvgPool3, nas.OpSepConv3},
				Nodes:  2,
			}
			net := search.DefaultConfig().Net
			model, err := nas.NewFixedModel(rng, net, geno)
			if err != nil {
				b.Fatal(err)
			}
			cfg := fed.DefaultFedAvgConfig()
			cfg.Rounds, cfg.LocalSteps = 8, localSteps
			res, err := fed.FedAvg(model, ds, parts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("model-averaging (FedAvg, localSteps=%d): final acc %.3f", localSteps, res.FinalAcc)
			}
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := nn.NewConv2D("c", rng, 8, 8, 3, nn.ConvOpts{Pad: 1})
	x := tensor.Randn(rng, 1, 16, 8, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Forward(x)
	}
}

func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := nn.NewConv2D("c", rng, 8, 8, 3, nn.ConvOpts{Pad: 1})
	x := tensor.Randn(rng, 1, 16, 8, 8, 8)
	out := c.Forward(x)
	grad := tensor.Randn(rng, 1, out.Shape()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Backward(grad)
	}
}

func BenchmarkSupernetSampledForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := search.DefaultConfig()
	net, err := nas.NewSupernet(rng, cfg.Net)
	if err != nil {
		b.Fatal(err)
	}
	nE, rE := net.ArchSpace()
	g := nas.Gates{Normal: make([]int, nE), Reduce: make([]int, rE)}
	for i := range g.Normal {
		g.Normal[i] = 4 // sep_conv_3x3
	}
	for i := range g.Reduce {
		g.Reduce[i] = 4
	}
	x := tensor.Randn(rng, 1, 16, 3, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.ForwardSampled(x, g)
	}
}

func BenchmarkControllerSampleGates(b *testing.B) {
	ctrl, err := controller.New(14, 14, nas.NumOps, controller.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.SampleGates(rng)
	}
}

func BenchmarkSearchRound(b *testing.B) {
	cfg := search.DefaultConfig()
	cfg.WarmupSteps, cfg.SearchSteps = 0, 1
	s, err := search.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayCompensation(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const parts = 32
	grads := make([]*tensor.Tensor, parts)
	fresh := make([]*tensor.Tensor, parts)
	stale := make([]*tensor.Tensor, parts)
	for i := range grads {
		grads[i] = tensor.Randn(rng, 1, 64)
		fresh[i] = tensor.Randn(rng, 1, 64)
		stale[i] = tensor.Randn(rng, 1, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := staleness.CompensateTheta(grads, fresh, stale, 1); err != nil {
			b.Fatal(err)
		}
	}
}
