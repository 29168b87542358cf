package experiments

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/baselines"
	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/transmission"
	"fedrlnas/internal/wire"
)

// Fig3Warmup reproduces Fig. 3: the warm-up phase training-accuracy curve
// on i.i.d. CIFAR10S (raw + 50-step moving average in the paper; we emit
// raw + scaled moving average).
func Fig3Warmup(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	s, err := search.New(cfg)
	if err != nil {
		return Output{}, err
	}
	if err := s.Warmup(); err != nil {
		return Output{}, err
	}
	raw := s.WarmupCurve
	raw.Name = "warmup-acc"
	ma := raw.MovingAverage(maWindow(raw.Len()))
	out := Output{ID: "fig3", Title: "Warm-up phase on i.i.d. CIFAR10S",
		Curves: []metrics.Curve{raw, ma}}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"converges upward: first %.3f -> tail %.3f", firstOf(raw), raw.TailMean(10)))
	return out, nil
}

// Fig4Search reproduces Fig. 4: the searching-phase curve on i.i.d. data.
func Fig4Search(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	s, err := runSearchOnly(cfg)
	if err != nil {
		return Output{}, err
	}
	raw := s.SearchCurve
	raw.Name = "search-acc"
	ma := raw.MovingAverage(maWindow(raw.Len()))
	out := Output{ID: "fig4", Title: "Searching phase on i.i.d. CIFAR10S",
		Curves: []metrics.Curve{raw, ma}}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"warmup tail %.3f -> search tail %.3f", s.WarmupCurve.TailMean(10), raw.TailMean(10)))
	return out, nil
}

// Fig5AlphaOnly reproduces Fig. 5: updating α with θ fixed fails to reach
// the jointly optimized accuracy.
func Fig5AlphaOnly(scale Scale) (Output, error) {
	joint := baseSearchConfig(scale)
	sJoint, err := runSearchOnly(joint)
	if err != nil {
		return Output{}, err
	}
	frozen := baseSearchConfig(scale)
	frozen.AlphaOnly = true
	sFrozen, err := runSearchOnly(frozen)
	if err != nil {
		return Output{}, err
	}
	jc := sJoint.SearchCurve
	jc.Name = "joint(alpha+theta)"
	fc := sFrozen.SearchCurve
	fc.Name = "alpha-only(theta fixed)"
	out := Output{ID: "fig5", Title: "Updating α with θ fixed",
		Curves: []metrics.Curve{jc, fc}}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"joint tail %.3f vs alpha-only tail %.3f (joint must win)",
		jc.TailMean(10), fc.TailMean(10)))
	return out, nil
}

// Fig6NonIID reproduces Fig. 6: the searching phase on non-i.i.d. CIFAR10S
// converges like the i.i.d. run, only slower.
func Fig6NonIID(scale Scale) (Output, error) {
	iid := baseSearchConfig(scale)
	sIID, err := runSearchOnly(iid)
	if err != nil {
		return Output{}, err
	}
	non := baseSearchConfig(scale)
	non.Partition = search.Dirichlet
	sNon, err := runSearchOnly(non)
	if err != nil {
		return Output{}, err
	}
	ic := sIID.SearchCurve
	ic.Name = "iid"
	nc := sNon.SearchCurve
	nc.Name = "non-iid(dir-0.5)"
	out := Output{ID: "fig6", Title: "Searching phase on non-i.i.d. CIFAR10S",
		Curves: []metrics.Curve{ic, nc}}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"iid tail %.3f vs non-iid tail %.3f (non-iid converges, typically slower)",
		ic.TailMean(10), nc.TailMean(10)))
	return out, nil
}

// Fig7AdaptiveLatency reproduces Fig. 7: maximal sub-model transmission
// latency per network environment for adaptive vs uniform vs random
// assignment, over the synthetic 4G/LTE traces.
func Fig7AdaptiveLatency(scale Scale) (Output, error) {
	rounds := 30
	if scale == Full {
		rounds = 120
	}
	rng := rand.New(rand.NewSource(7))
	// Sample representative sub-model sizes from a supernet + controller.
	cfg := baseSearchConfig(scale)
	s, err := search.New(cfg)
	if err != nil {
		return Output{}, err
	}
	k := cfg.K
	table := &metrics.Table{
		Title:   "Fig 7: max transmission latency (seconds, mean over rounds)",
		Headers: []string{"environment", "adaptive", "uniform", "random"},
	}
	out := Output{ID: "fig7", Title: "Adaptive transmission latency"}
	adaptiveWins := 0
	envs := nettrace.StandardEnvironments()
	for _, env := range envs {
		traces, err := env.ParticipantTraces(k, rounds, rng)
		if err != nil {
			return Output{}, err
		}
		sums := map[transmission.Policy]float64{}
		for round := 0; round < rounds; round++ {
			sizes := make([]int64, k)
			for i := 0; i < k; i++ {
				sizes[i] = s.Supernet().SubModelWireBytes(s.Controller().SampleGates(rng), wire.FP64)
			}
			bw := make([]float64, k)
			for i := 0; i < k; i++ {
				bw[i] = traces[i].At(round)
			}
			for _, pol := range []transmission.Policy{transmission.Adaptive, transmission.Uniform, transmission.Random} {
				a, err := transmission.Assign(pol, sizes, bw, rng)
				if err != nil {
					return Output{}, err
				}
				sums[pol] += a.Max()
			}
		}
		n := float64(rounds)
		ad, un, ra := sums[transmission.Adaptive]/n, sums[transmission.Uniform]/n, sums[transmission.Random]/n
		table.AddRow(env.Name, metrics.F4(ad), metrics.F4(un), metrics.F4(ra))
		if ad <= un && ad <= ra {
			adaptiveWins++
		}
	}
	out.Table = table
	out.Notes = append(out.Notes, fmt.Sprintf(
		"adaptive has the lowest max latency in %d/%d environments", adaptiveWins, len(envs)))
	return out, nil
}

// Fig8Staleness reproduces Fig. 8: searching-phase curves under 70%
// staleness for delay-compensated vs use vs throw, plus the staleness-free
// run; all four share one warmed-up supernet.
func Fig8Staleness(scale Scale) (Output, error) {
	base := baseSearchConfig(scale)
	warm, err := search.New(base)
	if err != nil {
		return Output{}, err
	}
	if err := warm.Warmup(); err != nil {
		return Output{}, err
	}
	theta := warm.SnapshotTheta()

	type variant struct {
		name     string
		schedule staleness.Schedule
		strategy staleness.Strategy
	}
	variants := []variant{
		{"no-staleness", staleness.NoStaleness(), staleness.Hard},
		{"dc(70%)", staleness.Severe(), staleness.DC},
		{"use(70%)", staleness.Severe(), staleness.Use},
		{"throw(70%)", staleness.Severe(), staleness.Throw},
	}
	out := Output{ID: "fig8", Title: "Searching under 70% staleness (shared warm-up)"}
	tails := map[string]float64{}
	for _, v := range variants {
		cfg := base
		cfg.WarmupSteps = 0
		cfg.Staleness = v.schedule
		cfg.Strategy = v.strategy
		s, err := search.New(cfg)
		if err != nil {
			return Output{}, err
		}
		if err := s.RestoreTheta(theta); err != nil {
			return Output{}, err
		}
		if err := s.Run(); err != nil {
			return Output{}, err
		}
		c := s.SearchCurve
		c.Name = v.name
		out.Curves = append(out.Curves, c)
		tails[v.name] = c.TailMean(10)
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"tails: none %.3f | dc %.3f | use %.3f | throw %.3f (paper: none >= dc > use > throw)",
		tails["no-staleness"], tails["dc(70%)"], tails["use(70%)"], tails["throw(70%)"]))
	return out, nil
}

// convergenceFig is shared by Figs. 9–11: FedAvg curves of our searched
// model vs the predefined ResNet152-like vs FedNAS's searched model on a
// non-i.i.d. dataset.
func convergenceFig(id, title string, scale Scale, cfg search.Config, transferTo string) (Output, error) {
	// Search our genotype (on cfg's dataset).
	s, err := runSearchOnly(cfg)
	if err != nil {
		return Output{}, err
	}
	ourGeno := s.Derive()

	// FedNAS genotype on the same data.
	fednasGeno, err := fedNASGenotype(cfg, scale)
	if err != nil {
		return Output{}, err
	}

	// Retraining target: same dataset, or the transfer dataset (Fig. 11).
	ds := s.Dataset()
	netCfg := cfg.Net
	if transferTo != "" {
		spec := data.CIFAR100S()
		ds, err = data.Generate(spec)
		if err != nil {
			return Output{}, err
		}
		netCfg.NumClasses = spec.NumClasses
		netCfg.InChannels = spec.Channels
	}

	fcfg := fedConfig(scale)
	out := Output{ID: id, Title: title}

	// Ours.
	_, oursFed, err := search.RetrainFederated(ds, netCfg, ourGeno,
		search.Dirichlet, cfg.DirichletAlpha, cfg.K, fcfg, cfg.Seed+71)
	if err != nil {
		return Output{}, err
	}
	oursTrain := oursFed.TrainAcc
	oursTrain.Name = "ours-train"
	oursVal := oursFed.ValAcc
	oursVal.Name = "ours-val"

	// FedNAS's model.
	_, fnFed, err := search.RetrainFederated(ds, netCfg, fednasGeno,
		search.Dirichlet, cfg.DirichletAlpha, cfg.K, fcfg, cfg.Seed+72)
	if err != nil {
		return Output{}, err
	}
	fnVal := fnFed.ValAcc
	fnVal.Name = "fednas-val"

	// Predefined big model.
	bigFed, err := fedAvgFixedBig(ds, cfg, fcfg)
	if err != nil {
		return Output{}, err
	}
	bigTrain := bigFed.TrainAcc
	bigTrain.Name = "resnet152like-train"
	bigVal := bigFed.ValAcc
	bigVal.Name = "resnet152like-val"

	out.Curves = []metrics.Curve{oursTrain, oursVal, fnVal, bigTrain, bigVal}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"final val: ours %.3f | fednas %.3f | predefined %.3f",
		oursVal.Last(), fnVal.Last(), bigVal.Last()))
	return out, nil
}

// Fig9Convergence reproduces Fig. 9 (non-i.i.d. CIFAR10S).
func Fig9Convergence(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	cfg.Partition = search.Dirichlet
	return convergenceFig("fig9", "Accuracy vs rounds on non-i.i.d. CIFAR10S", scale, cfg, "")
}

// Fig10ConvergenceSVHN reproduces Fig. 10 (non-i.i.d. SVHNS).
func Fig10ConvergenceSVHN(scale Scale) (Output, error) {
	cfg := svhnConfig(scale)
	cfg.Partition = search.Dirichlet
	return convergenceFig("fig10", "Accuracy vs rounds on non-i.i.d. SVHNS", scale, cfg, "")
}

// Fig11TransferCurves reproduces Fig. 11: models searched on CIFAR10S
// transferred to non-i.i.d. CIFAR100S; the predefined model overfits
// (higher train accuracy, lower validation accuracy).
func Fig11TransferCurves(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	cfg.Partition = search.Dirichlet
	return convergenceFig("fig11", "Transfer to non-i.i.d. CIFAR100S", scale, cfg, "cifar100s")
}

// Fig12ParticipantCount reproduces Fig. 12: searching-phase curves for
// 10/20/50 participants (Quick uses 4/8/12 to stay CI-sized).
func Fig12ParticipantCount(scale Scale) (Output, error) {
	ks := []int{4, 8, 12}
	if scale == Full {
		ks = []int{10, 20, 50}
	}
	out := Output{ID: "fig12", Title: "Searching phase vs number of participants"}
	var lastTails []float64
	for _, k := range ks {
		cfg := baseSearchConfig(scale)
		cfg.K = k
		s, err := runSearchOnly(cfg)
		if err != nil {
			return Output{}, err
		}
		c := s.SearchCurve
		c.Name = fmt.Sprintf("K=%d", k)
		out.Curves = append(out.Curves, c)
		lastTails = append(lastTails, c.TailMean(10))
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"tail accuracies by K %v: %v (more participants should not hurt)", ks, lastTails))
	return out, nil
}

// fedAvgFixedBig trains the ResNet152-like predefined model with FedAvg on
// ds under cfg's partition settings.
func fedAvgFixedBig(ds *data.Dataset, cfg search.Config, fcfg fed.FedAvgConfig) (fed.FedAvgResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 81))
	model := baselines.NewResNetLike(rng, ds.Spec.Channels, ds.Spec.NumClasses)
	parts, err := participantsFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, cfg.Seed+82)
	if err != nil {
		return fed.FedAvgResult{}, err
	}
	fcfg.NewReplica = func() fed.Model {
		return baselines.NewResNetLike(rand.New(rand.NewSource(1)), ds.Spec.Channels, ds.Spec.NumClasses)
	}
	return fed.FedAvg(model, ds, parts, fcfg)
}

func firstOf(c metrics.Curve) float64 {
	if c.Len() == 0 {
		return 0
	}
	return c.Points[0].Value
}

func maWindow(n int) int {
	w := n / 5
	if w < 2 {
		w = 2
	}
	if w > 50 {
		w = 50 // the paper's window
	}
	return w
}
