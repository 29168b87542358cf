package fed

import (
	"math/rand"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// Batch is one trainer position's local-step input, refilled in place: the
// drawn indices, the gathered and the augmented images, their labels and the
// loss gradient. Every local step — Replica.Train, FedAvg's and P3's central
// retrain — runs its gather → augment → loss on one, so a steady-state step
// allocates none of them. Each buffer is sized by the largest batch it has
// held, so a slot whose participants' batches differ in size (min(batch,
// shard) over unequal shards) stops allocating once the largest has run.
// What Next and Loss return holds until the next call on the same Batch.
type Batch struct {
	idx       []int
	x, aug    *tensor.Tensor
	labels    []int
	gradLogit *tensor.Tensor
}

// Next draws size indices from batcher, gathers them from ds's training
// split and augments them from rng, returning the network input. The draws
// are those of Batcher.Next then AugmentConfig.Apply on the same streams.
func (b *Batch) Next(ds *data.Dataset, batcher *data.Batcher, rng *rand.Rand, size int, aug data.AugmentConfig) *tensor.Tensor {
	b.idx = batcher.NextInto(b.idx, size)
	b.x, b.labels = ds.GatherInto(b.x, b.labels, b.idx)
	b.aug = aug.ApplyInto(b.aug, b.x, rng)
	return b.aug
}

// Loss is the softmax cross-entropy of logits against the labels of the
// last Next; its GradLogits is the batch's buffer.
func (b *Batch) Loss(logits *tensor.Tensor) (nn.LossResult, error) {
	loss, err := nn.CrossEntropyInto(b.gradLogit, logits, b.labels)
	if err != nil {
		return loss, err
	}
	b.gradLogit = loss.GradLogits
	return loss, nil
}

// EvalBatch is a test-set evaluation's batch, refilled in place. Its image
// buffer is sized by the largest batch it has held, so a short last batch
// and the full ones after it share it. What Gather returns holds until the
// next call.
type EvalBatch struct {
	idx    []int
	x      *tensor.Tensor
	labels []int
}

// Gather fills the batch with ds's test samples indices.
func (b *EvalBatch) Gather(ds *data.Dataset, indices []int) (*tensor.Tensor, []int) {
	b.x, b.labels = ds.GatherTestInto(b.x, b.labels, indices)
	return b.x, b.labels
}

// correct counts model's top-1 hits on ds's test samples [start, end).
func (b *EvalBatch) correct(model Model, ds *data.Dataset, start, end int) float64 {
	b.idx = b.idx[:0]
	for i := start; i < end; i++ {
		b.idx = append(b.idx, i)
	}
	x, y := b.Gather(ds, b.idx)
	return nn.Accuracy(model.Forward(x), y) * float64(len(y))
}
