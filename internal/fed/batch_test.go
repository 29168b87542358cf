package fed

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/tensor"
)

// batchSizes alternates the largest batch with shorter ones, as a slot does
// when its participants' batches are min(batch, shard) over unequal shards.
var batchSizes = []int{16, 11, 16, 3}

// batchStream is a participant's stream: a batcher over every training
// sample and the augmentation draws, one RNG for both as in a Participant.
func batchStream(t *testing.T, ds *data.Dataset) (*data.Batcher, *rand.Rand) {
	t.Helper()
	pool := make([]int, ds.NumTrain())
	for i := range pool {
		pool[i] = i
	}
	rng := rand.New(rand.NewSource(5))
	b, err := data.NewBatcher(pool, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b, rng
}

// batchLogits is one logit tensor per batch size, classes wide.
func batchLogits(classes int) map[int]*tensor.Tensor {
	rng := rand.New(rand.NewSource(9))
	logits := map[int]*tensor.Tensor{}
	for _, n := range batchSizes {
		logits[n] = tensor.Randn(rng, 1, n, classes)
	}
	return logits
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// A Batch refilled at sizes 16, 11, 16, 3 gives at each the bits a fresh
// Batch gives, and once its largest batch has run a refill of any size — the
// gather, the augmentation and the loss gradient — allocates nothing.
func TestBatchReusesStorageAcrossSizes(t *testing.T) {
	ds := testDataset(t)
	aug := data.DefaultAugment()
	logits := batchLogits(ds.Spec.NumClasses)
	var reused Batch
	rb, rr := batchStream(t, ds)
	fb, fr := batchStream(t, ds)
	for pass := 0; pass < 2; pass++ {
		for _, n := range batchSizes {
			x := reused.Next(ds, rb, rr, n, aug)
			loss, err := reused.Loss(logits[n])
			if err != nil {
				t.Fatal(err)
			}
			var fresh Batch
			fx := fresh.Next(ds, fb, fr, n, aug)
			floss, err := fresh.Loss(logits[n])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(x, fx) {
				t.Fatalf("pass %d, batch %d: the refilled images differ from a fresh batch's", pass, n)
			}
			if !sameBits(loss.GradLogits, floss.GradLogits) || loss.Loss != floss.Loss || loss.Accuracy != floss.Accuracy {
				t.Fatalf("pass %d, batch %d: the refilled loss differs from a fresh batch's", pass, n)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range batchSizes {
			reused.Next(ds, rb, rr, n, aug)
			if _, err := reused.Loss(logits[n]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("refills at sizes %v allocate %.1f objects once the largest has run, want 0", batchSizes, allocs)
	}
}

// One evaluation buffer holds the full batches and the short last one: a
// pass over the test split that ends short allocates nothing once the
// first pass has run.
func TestEvalBatchReusesStorageAcrossSizes(t *testing.T) {
	ds := testDataset(t)
	idx := make([]int, ds.NumTest())
	for i := range idx {
		idx[i] = i
	}
	const size = 5 // 24 test samples: four full batches and one of 4
	var b EvalBatch
	pass := func() {
		for start := 0; start < len(idx); start += size {
			end := min(start+size, len(idx))
			x, y := b.Gather(ds, idx[start:end])
			want, wantY := ds.GatherTest(idx[start:end])
			if !sameBits(x, want) || !slices.Equal(y, wantY) {
				t.Fatalf("batch [%d, %d) differs from a fresh gather", start, end)
			}
		}
	}
	pass()
	allocs := testing.AllocsPerRun(5, func() {
		for start := 0; start < len(idx); start += size {
			b.Gather(ds, idx[start:min(start+size, len(idx))])
		}
	})
	if allocs != 0 {
		t.Errorf("an evaluation pass allocates %.1f objects after the first, want 0", allocs)
	}
	pass()
}
