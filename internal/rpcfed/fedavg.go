package rpcfed

import (
	"fmt"
	"net/rpc"
	"sync"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

// FedAvgRequest asks a participant to run LocalSteps of SGD on a fixed
// architecture starting from the shipped weights (the P3 "FL" phase over
// the real transport).
type FedAvgRequest struct {
	Round      int
	Normal     []int
	Reduce     []int
	Weights    [][]float64
	BatchSize  int
	LocalSteps int
	// Optimizer hyperparameters (paper Table I "P3, FL").
	LR          float64
	Momentum    float64
	WeightDecay float64
	GradClip    float64
	// Span is the trace context of the issuing round (see
	// TrainRequest.Span).
	Span wire.SpanContext
}

// FedAvgReply returns the locally updated weights and shard size for
// server-side weighted averaging.
type FedAvgReply struct {
	Round         int
	ParticipantID int
	NumSamples    int
	TrainAccuracy float64
	Weights       [][]float64
}

// TrainAvg implements the FedAvg participant update over RPC: LocalSteps of
// the one local step plus an SGD step, on the same replica Train uses (the
// derived architecture is just one more gate vector).
func (p *ParticipantService) TrainAvg(req *FedAvgRequest, reply *FedAvgReply) error {
	p.straggle(req.Span)
	if req.LocalSteps <= 0 {
		return fmt.Errorf("rpcfed: bad FedAvg request: %d local steps", req.LocalSteps)
	}
	g := nas.Gates{Normal: req.Normal, Reduce: req.Reduce}
	rep, params, err := p.acquireReplica(g, req.BatchSize)
	if err != nil {
		return err
	}
	defer p.releaseReplica(rep)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := loadWeights(params, req.Weights); err != nil {
		return err
	}
	opt := nn.NewSGD(req.LR, req.Momentum, req.WeightDecay, req.GradClip)
	st := fed.Step{Gates: g, BatchSize: req.BatchSize, Augment: data.DefaultAugment()}
	for step := 0; step < req.LocalSteps; step++ {
		if err := rep.Train(p.ds, p.part, st, &p.slot); err != nil {
			return err
		}
		opt.Step(params)
	}

	reply.Round = req.Round
	reply.ParticipantID = p.id
	reply.NumSamples = p.part.NumSamples
	reply.TrainAccuracy = p.slot.Acc
	reply.Weights = flattenValues(params)
	return nil
}

// FedAvgOverRPC trains the genotype's discrete model with federated
// averaging across the RPC participants (hard sync: all replies per round,
// issued concurrently). The server's copy of the model is updated in place.
func FedAvgOverRPC(clients []*rpc.Client, model *nas.FixedModel, geno nas.Genotype,
	cfg fed.FedAvgConfig, rounds int) (metrics.Curve, error) {

	if len(clients) == 0 {
		return metrics.Curve{}, fmt.Errorf("rpcfed: no participants")
	}
	if err := cfg.Validate(); err != nil {
		return metrics.Curve{}, err
	}
	// Participants index the gates into their copy of the network's
	// candidate list, which the server's model was built with.
	gates, err := geno.GatesFor(model.Net.Cfg.Candidates)
	if err != nil {
		return metrics.Curve{}, fmt.Errorf("rpcfed: %w", err)
	}
	params := model.Params()
	var curve metrics.Curve

	for round := 0; round < rounds; round++ {
		weights := flattenValues(params)
		req := &FedAvgRequest{
			Round:      round,
			Normal:     gates.Normal,
			Reduce:     gates.Reduce,
			Weights:    weights,
			BatchSize:  cfg.BatchSize,
			LocalSteps: cfg.LocalSteps,
			LR:         cfg.LR, Momentum: cfg.Momentum,
			WeightDecay: cfg.WeightDecay, GradClip: cfg.GradClip,
		}
		replies := make([]*FedAvgReply, len(clients))
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, client := range clients {
			wg.Add(1)
			go func(i int, client *rpc.Client) {
				defer wg.Done()
				r := &FedAvgReply{}
				errs[i] = client.Call("Participant.TrainAvg", req, r)
				replies[i] = r
			}(i, client)
		}
		wg.Wait()

		totalSamples := 0
		for i, err := range errs {
			if err != nil {
				return curve, fmt.Errorf("rpcfed: participant %d round %d: %w", i, round, err)
			}
			totalSamples += replies[i].NumSamples
		}
		// Weighted average of returned weights.
		avg := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			avg[i] = tensor.New(p.Value.Shape()...)
		}
		meanAcc := 0.0
		for _, r := range replies {
			w := float64(r.NumSamples) / float64(totalSamples)
			for i := range avg {
				t := tensor.FromSlice(r.Weights[i], avg[i].Shape()...)
				avg[i].AXPY(w, t)
			}
			meanAcc += r.TrainAccuracy
		}
		for i, p := range params {
			p.Value.CopyFrom(avg[i])
		}
		curve.Add(round, meanAcc/float64(len(replies)))
	}
	return curve, nil
}
