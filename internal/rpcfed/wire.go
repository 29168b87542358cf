// Package rpcfed runs the federated model search over a real transport:
// participants are net/rpc servers on TCP (the paper deploys with
// PyTorch's Distributed RPC), and the search server dials them, ships
// pruned sub-models, and collects rewards and gradients asynchronously.
//
// Unlike internal/search — where staleness is *simulated* from a schedule —
// here soft synchronization is genuine: the server waits for a quorum of
// replies per round, and replies that arrive after their round closed are
// delay-compensated (Eq. 13–15) against the server's memory pools, exactly
// as Alg. 1 prescribes.
package rpcfed

import (
	"fmt"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/wire"
)

// TrainRequest asks a participant to run one local update (Alg. 1 lines
// 37–42) on a sub-model.
type TrainRequest struct {
	Round int
	// Gates select one candidate per edge; the participant reconstructs
	// the sub-model wiring from its own copy of the network config.
	Normal []int
	Reduce []int
	// Weights carries the sampled sub-model parameters in canonical
	// (SampledParams) order, flattened per tensor. Empty when the top-k
	// transport ships Packed deltas instead.
	Weights [][]float64
	// BatchSize is the mini-batch size for the local step.
	BatchSize int

	// Top-k transport fields (wire.TopK mode only; see topk.go). ParamIDs
	// names each shipped tensor by its supernet parameter index, the key
	// under which both ends maintain weight mirrors and gradient residuals
	// across rounds. Packed is a wire tensor group applied as a delta on
	// the participant's mirrors: dense tensors resync, tag-4 entries add.
	// TopKRatio tells the participant what fraction of gradient
	// coordinates to return.
	ParamIDs  []int
	TopKRatio float64
	Packed    []byte
	// Span carries the distributed-trace context of the round that issued
	// this request, so worker-side spans parent under the server's round
	// span. The binary framing lifts it into the frame header; gob mode
	// carries it in the body. Zero means the run is untraced.
	Span wire.SpanContext
}

// TrainReply returns the participant's reward and gradients.
type TrainReply struct {
	Round         int
	ParticipantID int
	// Reward is the training accuracy on the local batch (Eq. 8's ACC).
	Reward float64
	Loss   float64
	// Grads carries ∇θ for the sampled parameters, aligned with
	// TrainRequest.Weights. Empty when the top-k transport ships Packed.
	Grads [][]float64
	// Packed is the top-k transport's gradient payload: a wire tensor
	// group of tag-4 deltas carrying the k largest-magnitude coordinates
	// of gradient-plus-residual per tensor (decoded against zeros on the
	// server), aligned with TrainRequest.ParamIDs.
	Packed []byte
}

// HelloRequest is the registration handshake.
type HelloRequest struct{}

// HelloReply describes the participant.
type HelloReply struct {
	ParticipantID int
	NumSamples    int
}

// loadWeights copies a wire payload into the sub-model parameters it was
// flattened from, checking every tensor's size. A failed load may leave a
// prefix loaded; the next step overwrites it either way.
func loadWeights(params []*nn.Param, weights [][]float64) error {
	if len(weights) != len(params) {
		return fmt.Errorf("rpcfed: %d weight tensors, want %d", len(weights), len(params))
	}
	for i, w := range weights {
		if len(w) != params[i].Value.Size() {
			return fmt.Errorf("rpcfed: weight %d has %d values, want %d", i, len(w), params[i].Value.Size())
		}
		copy(params[i].Value.Data(), w)
	}
	return nil
}
