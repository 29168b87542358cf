package nas

import (
	"fmt"

	"fedrlnas/internal/tensor"
)

// ForwardBatch runs one batched eval-mode forward over xs — every example
// packed into a single [padTo, C, H, W] tensor and pushed through the GEMM
// path once — and demultiplexes the logits back into per-example rows.
// Row i is bit-identical to m.Forward(xs[i]): in eval mode every layer is
// row-independent (batch norm normalizes with running statistics
// elementwise; convolutions lower to per-row GEMMs whose k-summation order
// does not depend on batch size), so batching changes throughput, never
// values. That independence is exactly what training-mode batch norm
// breaks, so ForwardBatch refuses to run a training-mode model.
//
// padTo rounds the batch up to a fixed dispatch size (padding rows repeat
// example 0, and their outputs are discarded) so the admission queue can
// keep kernel shapes — and therefore packed-panel scratch — stable across
// dispatches. padTo < len(xs) means no padding beyond the batch itself.
//
// Each xs[i] must be a single example shaped [1, C, H, W] or [C, H, W],
// all identically. The returned logits tensors ([1, classes]) are
// per-slot scratch owned by the model: valid until the next ForwardBatch
// call, so callers that retain results must copy them out.
func (m *FixedModel) ForwardBatch(xs []*tensor.Tensor, padTo int) ([]*tensor.Tensor, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("nas: ForwardBatch on empty batch")
	}
	if m.batchBNs == nil {
		// The module tree is fixed at construction, and walking it
		// allocates; a dispatch must not.
		m.batchBNs = m.Net.BatchNorms()
	}
	for _, bn := range m.batchBNs {
		if bn.Training() {
			return nil, fmt.Errorf("nas: ForwardBatch requires eval mode (SetTraining(false)); training-mode batch norm couples rows")
		}
	}
	if padTo < n {
		padTo = n
	}
	var shape [3]int
	switch x0 := xs[0]; {
	case x0.Dims() == 4 && x0.Dim(0) == 1:
		shape = [3]int{x0.Dim(1), x0.Dim(2), x0.Dim(3)}
	case x0.Dims() == 3:
		shape = [3]int{x0.Dim(0), x0.Dim(1), x0.Dim(2)}
	default:
		return nil, fmt.Errorf("nas: ForwardBatch example shape %v, want [1,C,H,W] or [C,H,W]", x0.Shape())
	}
	exampleLen := shape[0] * shape[1] * shape[2]
	for i, x := range xs {
		if x.Size() != exampleLen {
			return nil, fmt.Errorf("nas: ForwardBatch example %d has %d elements, example 0 has %d",
				i, x.Size(), exampleLen)
		}
	}
	if m.batchIn == nil || !m.batchIn.ShapeIs(padTo, shape[0], shape[1], shape[2]) {
		m.batchIn = tensor.New(padTo, shape[0], shape[1], shape[2])
	}
	in := m.batchIn.Data()
	for i, x := range xs {
		copy(in[i*exampleLen:(i+1)*exampleLen], x.Data())
	}
	for i := n; i < padTo; i++ {
		copy(in[i*exampleLen:(i+1)*exampleLen], xs[0].Data())
	}

	logits := m.Net.ForwardSampled(m.batchIn, m.G)
	classes := logits.Size() / padTo
	ld := logits.Data()
	if len(m.batchOut) < n {
		m.batchOut = append(m.batchOut, make([]*tensor.Tensor, n-len(m.batchOut))...)
	}
	out := m.batchOut[:n]
	for i := range out {
		if out[i] == nil || !out[i].ShapeIs(1, classes) {
			out[i] = tensor.New(1, classes)
		}
		copy(out[i].Data(), ld[i*classes:(i+1)*classes])
	}
	return out, nil
}
