package nas

import (
	"fmt"

	"fedrlnas/internal/tensor"
)

// ForwardBatch runs one batched eval-mode forward over xs — every example
// packed into a single [len(xs), C, H, W] tensor and pushed through the GEMM
// path once — and demultiplexes the logits back into per-example rows.
// It runs the folded model (SetTraining): each batch norm folded into the
// conv before it, so no batch-norm layer runs at all. Row i is
// bit-identical to m.Forward(xs[i]): in eval mode every layer is
// row-independent (convolutions lower to per-row GEMMs whose k-summation
// order does not depend on batch size, and a folded bias is added
// elementwise), so batching changes throughput, never values. That
// independence is exactly what training-mode batch norm breaks, so
// ForwardBatch refuses a model that SetTraining(false) has not put in eval
// mode.
//
// The input is staged in storage the model keeps: a batch larger than any
// before it replaces that storage with exactly its own size, and every
// other batch reuses it, so once the largest batch has run a call of any
// size allocates nothing, and the model holds one batch's staging.
//
// padTo is ignored. It is kept only because bench/probes.go still passes
// it; every batch runs at its own size.
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
	if !m.folded {
		return nil, fmt.Errorf("nas: ForwardBatch requires eval mode (SetTraining(false)); training-mode batch norm couples rows")
	}
	shape, err := ExampleShape(xs[0])
	if err != nil {
		return nil, err
	}
	exampleLen := shape[0] * shape[1] * shape[2]
	for i, x := range xs {
		if x.Size() != exampleLen {
			return nil, fmt.Errorf("nas: ForwardBatch example %d has %d elements, example 0 has %d",
				i, x.Size(), exampleLen)
		}
	}
	if need := n * exampleLen; need > m.batchMax {
		// A fresh arena sizes its one slab to this take exactly, and the
		// smaller slabs of earlier batches go with the old one.
		m.batchAr, m.batchMax = tensor.Arena{}, need
	}
	m.batchAr.Reset()
	m.batchAr.Take(&m.batchIn, n, shape[0], shape[1], shape[2])
	in := m.batchIn.Data()
	for i, x := range xs {
		copy(in[i*exampleLen:(i+1)*exampleLen], x.Data())
	}

	logits := m.Forward(&m.batchIn)
	classes := logits.Size() / n
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

// ExampleShape returns the [C, H, W] of one example shaped [1, C, H, W] or
// [C, H, W], the two forms ForwardBatch accepts.
func ExampleShape(x *tensor.Tensor) ([3]int, error) {
	switch {
	case x.Dims() == 4 && x.Dim(0) == 1:
		return [3]int{x.Dim(1), x.Dim(2), x.Dim(3)}, nil
	case x.Dims() == 3:
		return [3]int{x.Dim(0), x.Dim(1), x.Dim(2)}, nil
	}
	return [3]int{}, fmt.Errorf("nas: ForwardBatch example shape %v, want [1,C,H,W] or [C,H,W]", x.Shape())
}
