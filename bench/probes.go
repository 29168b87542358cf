package main

import (
	"math/rand"
	"time"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/transmission"
	"fedrlnas/internal/wire"
)

// gateDraws is how many seeded sub-models the sampled-path probes average
// over: one draw is one of 8^10 architectures, and their costs differ by
// more than 2×.
const gateDraws = 64

// prober times calls into one layer at a time, from outside: each probe
// calls exported functions with the shapes of the workload the metric is
// mapped to in the layer table (search shapes for nn/nas/controller, the
// rpc net for wire/rpcfed, the served model for the fixed-model forward).
// Every call is one span under the run's single "probe" root.
type prober struct {
	o      opts
	root   int
	m      metricSet
	rng    *rand.Rand
	firstE error
}

// sample calls fn iters times after one untimed call and returns each
// call's duration in seconds. prep, when not nil, runs before every call
// with the clock stopped.
func (p *prober) sample(name string, iters int, prep, fn func(i int)) []float64 {
	if prep != nil {
		prep(0)
	}
	fn(0)
	samples := make([]float64, iters)
	for i := range samples {
		if prep != nil {
			prep(i)
		}
		t0 := time.Now()
		fn(i)
		d := time.Since(t0)
		p.o.tr.add("probe", name, p.root, t0, d)
		samples[i] = d.Seconds()
	}
	return samples
}

// us reports the median call under name in microseconds, ms in milliseconds.
func (p *prober) us(name string, iters int, prep, fn func(i int)) {
	p.m.putN(name, median(p.sample(name, iters, prep, fn))*1e6, "us", iters)
}

// usMean reports the mean instead: gate draws differ in cost, and a round
// pays for the draws it gets, so their mean is what adds up to round time.
func (p *prober) usMean(name string, iters int, prep, fn func(i int)) {
	p.m.putN(name, mean(p.sample(name, iters, prep, fn))*1e6, "us", iters)
}

func (p *prober) ms(name string, iters int, fn func(i int)) {
	p.m.putN(name, median(p.sample(name, iters, nil, fn))*1e3, "ms", iters)
}

func (p *prober) fail(err error) {
	if err != nil && p.firstE == nil {
		p.firstE = err
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

func paramValues(ps []*nn.Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Value
	}
	return out
}

// runProbes measures every probe-backed per-layer metric.
func runProbes(o opts) (metricSet, error) {
	p := &prober{o: o, m: metricSet{}, rng: rand.New(rand.NewSource(o.seed))}
	p.root = o.tr.open("probe", "probe", -1)
	defer o.tr.finish(p.root)
	iters := o.n(96, 8)

	cfg := search.DefaultConfig() // the pipeline/softsync shapes
	cfg.Dataset.Seed = 1000 + o.seed
	batch, cohortSize := cfg.BatchSize, cfg.K
	var ds *data.Dataset
	p.ms("data.generate_ms", max(iters/8, 3), func(int) {
		var err error
		ds, err = data.Generate(cfg.Dataset)
		p.fail(err)
	})
	if p.firstE != nil {
		return nil, p.firstE
	}

	// data: one participant batch, gathered and augmented into reused buffers.
	indices := rand.New(rand.NewSource(o.seed)).Perm(ds.NumTrain())[:batch]
	var xb, aug *tensor.Tensor
	var labels []int
	augment := data.DefaultAugment()
	p.us("data.gather_augment_us", iters, nil, func(int) {
		xb, labels = ds.GatherInto(xb, labels, indices)
		aug = augment.ApplyInto(aug, xb, p.rng)
	})

	// nn: every candidate op alone, on the first normal cell's input.
	cellIn := randTensor(p.rng, batch, cfg.Net.C, cfg.Dataset.Height, cfg.Dataset.Width)
	for _, kind := range nas.AllOps[1:] { // "none" does no work
		op := nas.NewOp(kind, "probe", p.rng, cfg.Net.C, 1)
		var out *tensor.Tensor
		p.us("nn.op."+kind.String()+".fwd_us", iters, nil, func(int) { out = op.Forward(cellIn) })
		grad := randTensor(p.rng, out.Shape()...)
		// Backward consumes the cache of the forward before it.
		p.us("nn.op."+kind.String()+".bwd_us", iters, func(int) { op.Forward(cellIn) }, func(int) { op.Backward(grad) })
	}

	net, err := nas.NewSupernet(rand.New(rand.NewSource(o.seed+202)), cfg.Net)
	if err != nil {
		return nil, err
	}
	net.SetTraining(true)
	nE, rE := net.ArchSpace()
	ctrl, err := controller.New(nE, rE, net.NumCandidates(), cfg.Alpha)
	if err != nil {
		return nil, err
	}
	gates := make([]nas.Gates, gateDraws)
	for i := range gates {
		gates[i] = ctrl.SampleGates(p.rng)
	}

	// nas: sampled sub-model forward/backward over the seeded draws.
	var logits *tensor.Tensor
	var loss nn.LossResult
	var gradBuf *tensor.Tensor
	p.usMean("nas.sub_fwd_us", gateDraws, nil, func(i int) { logits = net.ForwardSampled(aug, gates[i]) })
	p.us("nn.loss_us", iters, nil, func(int) {
		loss, err = nn.CrossEntropyInto(gradBuf, logits, labels)
		p.fail(err)
		gradBuf = loss.GradLogits
	})
	p.usMean("nas.sub_bwd_us", gateDraws, func(i int) {
		nn.ZeroGrads(net.Params())
		net.ForwardSampled(aug, gates[i])
	}, func(int) { net.BackwardSampled(loss.GradLogits) })
	var sampled []*nn.Param
	p.usMean("nas.sampled_params_us", gateDraws, nil, func(i int) { sampled = net.AppendSampledParams(sampled[:0], gates[i]) })

	opt := nn.NewSGD(cfg.ThetaLR, cfg.ThetaMomentum, cfg.ThetaWD, cfg.ThetaClip)
	p.us("nn.sgd_step_us", iters, nil, func(int) { opt.Step(net.Params()) })
	p.us("nn.clone_params_us", iters, nil, func(int) { nn.CloneParamValues(net.Params()) })

	// controller
	p.us("controller.sample_gates_us", iters, nil, func(int) { ctrl.SampleGates(p.rng) })
	var ag controller.AlphaGrad
	snap := ctrl.Snapshot()
	p.us("controller.logprob_grad_us", iters, nil, func(i int) { controller.LogProbGradAtInto(&ag, snap, gates[i%gateDraws]) })
	p.us("controller.apply_us", iters, nil, func(int) { ctrl.Apply(ag) })

	// transmission: adaptive assignment of one cohort's sub-models.
	sizes, bw := make([]int64, cohortSize), make([]float64, cohortSize)
	for i := range sizes {
		sizes[i] = net.SubModelWireBytes(gates[i], wire.FP64)
		bw[i] = 5 + 95*p.rng.Float64()
	}
	p.us("transmission.assign_us", iters, nil, func(int) {
		_, err := transmission.Assign(transmission.Adaptive, sizes, bw, p.rng)
		p.fail(err)
	})

	// cohort: the softsync draw, 10 of 200 enrolled.
	sampler, err := cohort.New(o.seed+303, 200, 10)
	if err != nil {
		return nil, err
	}
	p.us("cohort.draw_us", iters, nil, func(i int) { sampler.Cohort(i) })

	// staleness: delay compensation of one late sub-model reply.
	sub := net.SampledParams(gates[0])
	fresh := paramValues(sub)
	stale, grads := nn.CloneParamValues(sub), nn.CloneParamGrads(sub)
	p.us("staleness.compensate_us", iters, nil, func(int) {
		_, err := staleness.CompensateTheta(grads, fresh, stale, cfg.Lambda)
		p.fail(err)
	})

	if err := p.fixedModel(ds, cfg); err != nil {
		return nil, err
	}
	if err := p.wireAndRPC(); err != nil {
		return nil, err
	}
	return p.m, p.firstE
}

// fixedModel probes the discrete-model paths: the served model's batched
// eval forward, and the retrain step (forward+backward, batch 32) and test
// evaluation of a pipeline-sized model.
func (p *prober) fixedModel(ds *data.Dataset, cfg search.Config) error {
	iters := p.o.n(96, 8)
	served, err := nas.NewFixedModel(rand.New(rand.NewSource(serveModelSeed)), serveNet(), serveGenotype())
	if err != nil {
		return err
	}
	served.SetTraining(false)
	xs := requestInputs(p.o.seed)[:serveMaxBatch]
	p.us("nas.fixed_fwd_batch16_us", iters, nil, func(int) {
		_, err := served.ForwardBatch(xs, serveMaxBatch)
		p.fail(err)
	})

	model, err := nas.NewFixedModel(rand.New(rand.NewSource(p.o.seed)), cfg.Net, serveGenotype())
	if err != nil {
		return err
	}
	model.SetTraining(true)
	idx := rand.New(rand.NewSource(p.o.seed)).Perm(ds.NumTrain())[:32]
	x, y := ds.Gather(idx)
	p.us("nas.fixed_train_step_us", iters, nil, func(int) {
		nn.ZeroGrads(model.Params())
		loss, err := nn.CrossEntropy(model.Forward(x), y)
		p.fail(err)
		model.Backward(loss.GradLogits)
	})
	p.ms("fed.evaluate_ms", max(iters/8, 3), func(int) { fed.Evaluate(model, ds, 32) })
	return nil
}

// wireAndRPC probes the codec on a sampled sub-model's parameter group and
// a participant's Train handler called directly, with no socket — both on
// the rpc workload's net.
func (p *prober) wireAndRPC() error {
	iters := p.o.n(96, 8)
	net, err := nas.NewSupernet(rand.New(rand.NewSource(p.o.seed+202)), rpcNet())
	if err != nil {
		return err
	}
	nE, rE := net.ArchSpace()
	ctrl, err := controller.New(nE, rE, net.NumCandidates(), controller.DefaultConfig())
	if err != nil {
		return err
	}
	var wireBytes float64
	gates := make([]nas.Gates, gateDraws)
	for i := range gates {
		gates[i] = ctrl.SampleGates(p.rng)
		wireBytes += float64(net.SubModelWireBytes(gates[i], wire.FP64))
	}
	p.m.putN("wire.submodel_bytes", wireBytes/gateDraws, "B", gateDraws)

	group := make([][]float64, 0, 64)
	for _, prm := range net.SampledParams(gates[0]) {
		group = append(group, prm.Value.Data())
	}
	var buf []byte
	enc := p.sample("wire.encode_fp64_us_per_mb", iters, nil, func(int) { buf = wire.AppendGroup(buf[:0], wire.FP64, group) })
	var into [][]float64
	dec := p.sample("wire.decode_fp64_us_per_mb", iters, nil, func(int) {
		into, err = wire.DecodeGroupInto(wire.NewReader(buf), into)
		p.fail(err)
	})
	mb := float64(len(buf)) / (1 << 20)
	p.m.putN("wire.encode_fp64_us_per_mb", median(enc)*1e6/mb, "us/MB", iters)
	p.m.putN("wire.decode_fp64_us_per_mb", median(dec)*1e6/mb, "us/MB", iters)

	ds, err := data.Generate(rpcSpec(p.o.seed))
	if err != nil {
		return err
	}
	part, err := data.IIDPartition(ds.NumTrain(), rpcK, rand.New(rand.NewSource(p.o.seed+5)))
	if err != nil {
		return err
	}
	svc, err := rpcfed.NewParticipantService(0, ds, part.Indices[0], rpcNet(), p.o.seed+100)
	if err != nil {
		return err
	}
	reqs := make([]*rpcfed.TrainRequest, gateDraws)
	for i, g := range gates {
		req := &rpcfed.TrainRequest{Round: i, Normal: g.Normal, Reduce: g.Reduce, BatchSize: 8}
		for _, prm := range net.SampledParams(g) {
			req.Weights = append(req.Weights, prm.Value.Data())
		}
		reqs[i] = req
	}
	p.m.putN("rpcfed.train_call_ms", mean(p.sample("rpcfed.train_call_ms", gateDraws, nil, func(i int) {
		var reply rpcfed.TrainReply
		p.fail(svc.Train(reqs[i], &reply))
	}))*1e3, "ms", gateDraws)
	return p.firstE
}
