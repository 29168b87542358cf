//go:build fedcheck

package fed

import (
	"math"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/tensor"
)

// Under fedcheck a refill's storage is poisoned before the gather, the
// augmentation and the loss write it, so an element one of them skipped
// reads as a NaN: at every size, shorter or longer than the last, every
// element of the images and the loss gradient must have been written.
func TestBatchRefillWritesEveryElement(t *testing.T) {
	ds := testDataset(t)
	logits := batchLogits(ds.Spec.NumClasses)
	noNaN := func(what string, n int, x *tensor.Tensor) {
		for i, v := range x.Data() {
			if math.IsNaN(v) {
				t.Fatalf("batch %d: %s [%d] was not written", n, what, i)
			}
		}
	}
	for _, aug := range []data.AugmentConfig{{}, data.DefaultAugment()} {
		var b Batch
		batcher, rng := batchStream(t, ds)
		for pass := 0; pass < 2; pass++ {
			for _, n := range batchSizes {
				noNaN("augmented image", n, b.Next(ds, batcher, rng, n, aug))
				noNaN("gathered image", n, b.x)
				loss, err := b.Loss(logits[n])
				if err != nil {
					t.Fatal(err)
				}
				noNaN("loss gradient", n, loss.GradLogits)
			}
		}
	}
}
