package experiments

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/baselines"
	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
)

// centralRow retrains a genotype centrally and renders one table row.
func centralRow(t *metrics.Table, name string, ds *data.Dataset, netCfg nas.Config,
	geno nas.Genotype, rcfg search.RetrainConfig, seed int64, extra ...string) error {
	res, err := search.RetrainCentralized(ds, netCfg, geno, rcfg, seed)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	row := []string{name, metrics.Pct(res.TestErr), fmt.Sprintf("%d", res.ParamCount)}
	row = append(row, extra...)
	t.AddRow(row...)
	return nil
}

// Table2Centralized reproduces Table II: centralized evaluation (P3
// centralized) of models found by DARTS 1st/2nd order, ENAS, and ours —
// plus the delay-compensated section (use/throw/dc at 70% staleness, dc at
// 10%).
func Table2Centralized(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	rcfg := retrainConfig(scale)
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return Output{}, err
	}
	t := &metrics.Table{
		Title:   "Table II: centralized evaluation on i.i.d. CIFAR10S",
		Headers: []string{"method", "error(%)", "params", "strategy", "FL", "NAS"},
	}
	out := Output{ID: "table2", Title: "Centralized evaluation accuracies"}

	_, steps, _, _ := scale.sizes()

	// DARTS first order.
	d1cfg := baselines.DefaultDARTSConfig(cfg.Net)
	d1cfg.Steps = steps
	d1cfg.BatchSize = cfg.BatchSize
	d1, err := baselines.DARTS(ds, d1cfg)
	if err != nil {
		return Output{}, err
	}
	if err := centralRow(t, "darts-1st", ds, cfg.Net, d1.Genotype, rcfg, 31, "grad", "", "x"); err != nil {
		return Output{}, err
	}
	// DARTS second order (fewer steps: each costs ~4 passes).
	d2cfg := d1cfg
	d2cfg.SecondOrder = true
	d2cfg.Steps = steps / 2
	if d2cfg.Steps < 3 {
		d2cfg.Steps = 3
	}
	d2, err := baselines.DARTS(ds, d2cfg)
	if err != nil {
		return Output{}, err
	}
	if err := centralRow(t, "darts-2nd", ds, cfg.Net, d2.Genotype, rcfg, 32, "grad", "", "x"); err != nil {
		return Output{}, err
	}
	// ENAS.
	ecfg := baselines.DefaultENASConfig(cfg.Net)
	ecfg.Steps = steps
	ecfg.BatchSize = cfg.BatchSize
	en, err := baselines.ENAS(ds, ecfg)
	if err != nil {
		return Output{}, err
	}
	if err := centralRow(t, "enas", ds, cfg.Net, en.Genotype, rcfg, 33, "RL", "", "x"); err != nil {
		return Output{}, err
	}
	// Ours (hard sync).
	s, err := runSearchOnly(cfg)
	if err != nil {
		return Output{}, err
	}
	ourGeno := s.Derive()
	if err := centralRow(t, "ours", ds, cfg.Net, ourGeno, rcfg, 34, "RL", "x", "x"); err != nil {
		return Output{}, err
	}

	// Delay-compensated section.
	type row struct {
		name     string
		schedule staleness.Schedule
		strategy staleness.Strategy
	}
	for i, r := range []row{
		{"use(70%)", staleness.Severe(), staleness.Use},
		{"throw(70%)", staleness.Severe(), staleness.Throw},
		{"ours-dc(70%)", staleness.Severe(), staleness.DC},
		{"ours-dc(10%)", staleness.Slight(), staleness.DC},
	} {
		scfg := cfg
		scfg.Staleness = r.schedule
		scfg.Strategy = r.strategy
		scfg.Seed = cfg.Seed + 3 // shared across the section for comparability
		ss, err := runSearchOnly(scfg)
		if err != nil {
			return Output{}, err
		}
		if err := centralRow(t, r.name, ds, cfg.Net, ss.Derive(), rcfg, 40+int64(i), "RL", "x", "x"); err != nil {
			return Output{}, err
		}
	}
	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: ours competitive with darts/enas; dc beats use beats throw under 70% staleness")
	return out, nil
}

// Table3Federated reproduces Table III: federated evaluation (P3 FL) on
// i.i.d. CIFAR10S — FedAvg with a predefined model, EvoFedNAS big/small,
// ours, and ours at 10% staleness.
func Table3Federated(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	fcfg := fedConfig(scale)
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return Output{}, err
	}
	t := &metrics.Table{
		Title:   "Table III: federated evaluation on i.i.d. CIFAR10S",
		Headers: []string{"method", "error(%)", "params", "strategy"},
	}
	out := Output{ID: "table3", Title: "Federated evaluation accuracies"}

	// FedAvg with a predefined model.
	parts, err := participantsFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, 51)
	if err != nil {
		return Output{}, err
	}
	rng := rand.New(rand.NewSource(52))
	fixed := baselines.NewSmallCNN(rng, ds.Spec.Channels, ds.Spec.NumClasses)
	fixedCfg := fcfg
	fixedCfg.NewReplica = func() fed.Model {
		return baselines.NewSmallCNN(rand.New(rand.NewSource(52)), ds.Spec.Channels, ds.Spec.NumClasses)
	}
	fixedRes, err := fed.FedAvg(fixed, ds, parts, fixedCfg)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("fedavg(predefined)", metrics.Pct(1-fixedRes.FinalAcc),
		fmt.Sprintf("%d", nn.ParamCount(fixed.Params())), "hand")

	// EvoFedNAS big and small.
	for _, variant := range []baselines.EvoVariant{baselines.EvoBig, baselines.EvoSmall} {
		netV := variant.ApplyVariant(cfg.Net)
		part, err := partitionFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, 53)
		if err != nil {
			return Output{}, err
		}
		ecfg := baselines.DefaultEvoConfig(netV)
		ecfg.Workers = Workers
		_, steps, _, _ := scale.sizes()
		ecfg.Rounds = steps
		ecfg.BatchSize = cfg.BatchSize
		evoRes, err := baselines.EvoFedNAS(ds, part, ecfg)
		if err != nil {
			return Output{}, err
		}
		res, _, err := search.RetrainFederated(ds, netV, evoRes.Genotype,
			cfg.Partition, cfg.DirichletAlpha, cfg.K, fcfg, 54)
		if err != nil {
			return Output{}, err
		}
		t.AddRow(variant.String(), metrics.Pct(res.TestErr),
			fmt.Sprintf("%d", res.ParamCount), "evol")
	}

	// Ours + ours at 10% staleness.
	for _, v := range []struct {
		name     string
		schedule staleness.Schedule
		strategy staleness.Strategy
	}{
		{"ours", staleness.NoStaleness(), staleness.Hard},
		{"ours-dc(10%)", staleness.Slight(), staleness.DC},
	} {
		scfg := cfg
		scfg.Staleness = v.schedule
		scfg.Strategy = v.strategy
		s, err := runSearchOnly(scfg)
		if err != nil {
			return Output{}, err
		}
		res, _, err := search.RetrainFederated(ds, cfg.Net, s.Derive(),
			cfg.Partition, cfg.DirichletAlpha, cfg.K, fcfg, 55)
		if err != nil {
			return Output{}, err
		}
		t.AddRow(v.name, metrics.Pct(res.TestErr), fmt.Sprintf("%d", res.ParamCount), "RL")
	}
	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: predefined model worst; ours ~= evofednas-big with smaller params; evofednas-small worse")
	return out, nil
}

// Table4NonIID reproduces Table IV: federated evaluation on non-i.i.d.
// CIFAR10S (FedAvg ResNet152-like, FedNAS, EvoFedNAS big/small, ours) and
// non-i.i.d. SVHNS (FedAvg, ours).
func Table4NonIID(scale Scale) (Output, error) {
	out := Output{ID: "table4", Title: "Federated evaluation on non-i.i.d. datasets"}
	t := &metrics.Table{
		Title:   "Table IV: non-i.i.d. federated evaluation",
		Headers: []string{"dataset", "method", "error(%)", "params", "strategy"},
	}
	fcfg := fedConfig(scale)

	runDataset := func(label string, cfg search.Config, includeBaselines bool) error {
		cfg.Partition = search.Dirichlet
		ds, err := data.Generate(cfg.Dataset)
		if err != nil {
			return err
		}
		// FedAvg with the ResNet152-like predefined model.
		bigRes, err := fedAvgFixedBig(ds, cfg, fcfg)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(61))
		bigParams := nn.ParamCount(baselines.NewResNetLike(rng, ds.Spec.Channels, ds.Spec.NumClasses).Params())
		t.AddRow(label, "fedavg(resnet152like)", metrics.Pct(1-bigRes.FinalAcc),
			fmt.Sprintf("%d", bigParams), "hand")

		if includeBaselines {
			// FedNAS.
			fng, err := fedNASGenotype(cfg, scale)
			if err != nil {
				return err
			}
			fnRes, _, err := search.RetrainFederated(ds, cfg.Net, fng,
				cfg.Partition, cfg.DirichletAlpha, cfg.K, fcfg, 62)
			if err != nil {
				return err
			}
			t.AddRow(label, "fednas", metrics.Pct(fnRes.TestErr),
				fmt.Sprintf("%d", fnRes.ParamCount), "grad")

			// EvoFedNAS big/small.
			for _, variant := range []baselines.EvoVariant{baselines.EvoBig, baselines.EvoSmall} {
				netV := variant.ApplyVariant(cfg.Net)
				part, err := partitionFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, 63)
				if err != nil {
					return err
				}
				ecfg := baselines.DefaultEvoConfig(netV)
				ecfg.Workers = Workers
				_, steps, _, _ := scale.sizes()
				ecfg.Rounds = steps
				ecfg.BatchSize = cfg.BatchSize
				evoRes, err := baselines.EvoFedNAS(ds, part, ecfg)
				if err != nil {
					return err
				}
				res, _, err := search.RetrainFederated(ds, netV, evoRes.Genotype,
					cfg.Partition, cfg.DirichletAlpha, cfg.K, fcfg, 64)
				if err != nil {
					return err
				}
				t.AddRow(label, variant.String(), metrics.Pct(res.TestErr),
					fmt.Sprintf("%d", res.ParamCount), "evol")
			}
		}

		// Ours.
		s, err := runSearchOnly(cfg)
		if err != nil {
			return err
		}
		res, _, err := search.RetrainFederated(ds, cfg.Net, s.Derive(),
			cfg.Partition, cfg.DirichletAlpha, cfg.K, fcfg, 65)
		if err != nil {
			return err
		}
		t.AddRow(label, "ours", metrics.Pct(res.TestErr),
			fmt.Sprintf("%d", res.ParamCount), "RL")
		return nil
	}

	if err := runDataset("cifar10s", baseSearchConfig(scale), true); err != nil {
		return Output{}, err
	}
	if err := runDataset("svhns", svhnConfig(scale), false); err != nil {
		return Output{}, err
	}
	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: searched models beat the predefined big model on non-i.i.d. data with far fewer params")
	return out, nil
}

// Table5SearchTime reproduces Table V: virtual search time and shipped
// sub-net size for FedNAS, EvoFedNAS, and ours on fast (1080Ti-class) and
// slow (TX2-class, 4x) devices.
func Table5SearchTime(scale Scale) (Output, error) {
	cfg := baseSearchConfig(scale)
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		return Output{}, err
	}
	t := &metrics.Table{
		Title:   "Table V: search time and sub-net size",
		Headers: []string{"method", "search-time(h)", "payload(KB/round)"},
	}
	out := Output{ID: "table5", Title: "Search time"}
	_, steps, _, _ := scale.sizes()

	// FedNAS (ships the supernet).
	part, err := partitionFor(ds, cfg.Partition, cfg.DirichletAlpha, cfg.K, 71)
	if err != nil {
		return Output{}, err
	}
	fncfg := baselines.DefaultFedNASConfig(cfg.Net)
	fncfg.Workers = Workers
	fncfg.Rounds = steps
	fncfg.BatchSize = cfg.BatchSize
	fn, err := baselines.FedNAS(ds, part, fncfg)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("fednas", hours(fn.SearchSeconds), kb(fn.PayloadBytesPerRound))

	// EvoFedNAS (big space; the paper reports 16.1 h, the slowest).
	ecfg := baselines.DefaultEvoConfig(baselines.EvoBig.ApplyVariant(cfg.Net))
	ecfg.Workers = Workers
	ecfg.Rounds = steps * 2 // evolution needs more rounds to converge
	ecfg.BatchSize = cfg.BatchSize
	evo, err := baselines.EvoFedNAS(ds, part, ecfg)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("evofednas", hours(evo.SearchSeconds), kb(evo.PayloadBytesPerRound))

	// Ours on fast and slow devices.
	for _, dev := range []struct {
		name   string
		factor float64
	}{{"ours(1080ti)", 1}, {"ours(tx2)", 4}} {
		s, err := search.New(cfg)
		if err != nil {
			return Output{}, err
		}
		if err := s.SetSpeedFactors(dev.factor); err != nil {
			return Output{}, err
		}
		if err := s.Warmup(); err != nil {
			return Output{}, err
		}
		if err := s.Run(); err != nil {
			return Output{}, err
		}
		t.AddRow(dev.name, hours(s.TotalSeconds()), kb(s.MeanSubModelBytes()))
	}
	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: evofednas slowest; ours fastest with ~N-times smaller payload than fednas; tx2 ~4x 1080ti")
	return out, nil
}

// Table6Participants reproduces Table VI: best testing accuracy of searched
// models across participant counts.
func Table6Participants(scale Scale) (Output, error) {
	ks := []int{4, 8, 12}
	if scale == Full {
		ks = []int{10, 20, 50}
	}
	t := &metrics.Table{
		Title:   "Table VI: testing accuracy vs number of participants",
		Headers: []string{"K", "error(%)", "params"},
	}
	out := Output{ID: "table6", Title: "Impact of participant count"}
	rcfg := retrainConfig(scale)
	for _, k := range ks {
		cfg := baseSearchConfig(scale)
		cfg.K = k
		s, err := runSearchOnly(cfg)
		if err != nil {
			return Output{}, err
		}
		res, err := search.RetrainCentralized(s.Dataset(), cfg.Net, s.Derive(), rcfg, 80+int64(k))
		if err != nil {
			return Output{}, err
		}
		t.AddRow(fmt.Sprintf("%d", k), metrics.Pct(res.TestErr), fmt.Sprintf("%d", res.ParamCount))
	}
	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: accuracy roughly flat across K (paper: 'almost the same accuracy')")
	return out, nil
}

// transferTable is shared by Tables VII and VIII: search on CIFAR10S,
// retrain the genotype on CIFAR100S, against a model searched directly on
// CIFAR100S.
func transferTable(id, title string, scale Scale, kind search.PartitionKind) (Output, error) {
	out := Output{ID: id, Title: title}
	t := &metrics.Table{
		Title:   title,
		Headers: []string{"method", "error(%)", "params"},
	}
	rcfg := retrainConfig(scale)

	// Search on CIFAR10S.
	src := baseSearchConfig(scale)
	src.Partition = kind
	s, err := runSearchOnly(src)
	if err != nil {
		return Output{}, err
	}
	geno := s.Derive()

	// Target dataset and net.
	targetSpec := data.CIFAR100S()
	target, err := data.Generate(targetSpec)
	if err != nil {
		return Output{}, err
	}
	netCfg := src.Net
	netCfg.NumClasses = targetSpec.NumClasses

	// Transferred genotype.
	trans, err := search.RetrainCentralized(target, netCfg, geno, rcfg, 91)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("ours(transfer c10->c100)", metrics.Pct(trans.TestErr), fmt.Sprintf("%d", trans.ParamCount))

	// Searched directly on the target.
	direct := baseSearchConfig(scale)
	direct.Partition = kind
	direct.Dataset = targetSpec
	direct.Net.NumClasses = targetSpec.NumClasses
	sd, err := runSearchOnly(direct)
	if err != nil {
		return Output{}, err
	}
	dres, err := search.RetrainCentralized(target, netCfg, sd.Derive(), rcfg, 92)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("ours(searched on c100)", metrics.Pct(dres.TestErr), fmt.Sprintf("%d", dres.ParamCount))

	// Random-architecture control.
	randGeno := randomGenotype(rand.New(rand.NewSource(93)), src.Net)
	rres, err := search.RetrainCentralized(target, netCfg, randGeno, rcfg, 94)
	if err != nil {
		return Output{}, err
	}
	t.AddRow("random-arch", metrics.Pct(rres.TestErr), fmt.Sprintf("%d", rres.ParamCount))

	out.Table = t
	out.Notes = append(out.Notes,
		"expected shape: transferred genotype competitive with direct search (paper: 'satisfying transferability')")
	return out, nil
}

// Table7Transfer reproduces Table VII (i.i.d. transfer).
func Table7Transfer(scale Scale) (Output, error) {
	return transferTable("table7", "Table VII: transfer i.i.d. CIFAR10S -> CIFAR100S", scale, search.IID)
}

// Table8TransferNonIID reproduces Table VIII (non-i.i.d. transfer).
func Table8TransferNonIID(scale Scale) (Output, error) {
	return transferTable("table8", "Table VIII: transfer non-i.i.d. CIFAR10S -> CIFAR100S", scale, search.Dirichlet)
}

func randomGenotype(rng *rand.Rand, net nas.Config) nas.Genotype {
	edges := nas.NumEdges(net.Nodes)
	g := nas.Genotype{Nodes: net.Nodes}
	for i := 0; i < edges; i++ {
		g.Normal = append(g.Normal, net.Candidates[rng.Intn(len(net.Candidates))])
		g.Reduce = append(g.Reduce, net.Candidates[rng.Intn(len(net.Candidates))])
	}
	return g
}

func hours(sec float64) string { return fmt.Sprintf("%.3f", sec/3600) }

func kb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
