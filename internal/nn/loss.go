package nn

import (
	"fmt"
	"math"

	"fedrlnas/internal/tensor"
)

// LossResult bundles the outputs of a loss evaluation.
type LossResult struct {
	Loss       float64        // mean cross-entropy over the batch
	Accuracy   float64        // fraction of correct argmax predictions
	GradLogits *tensor.Tensor // dLoss/dLogits, already divided by batch size
}

// CrossEntropy computes softmax cross-entropy between logits [N, classes]
// and integer labels, along with top-1 accuracy and the logits gradient.
func CrossEntropy(logits *tensor.Tensor, labels []int) (LossResult, error) {
	return CrossEntropyInto(nil, logits, labels)
}

// CrossEntropyInto is CrossEntropy with a caller-provided gradient buffer:
// gradBuf is reused as GradLogits whenever its capacity holds the batch
// (tensor.Resize), letting hot loops evaluate the loss without per-step
// allocations even when the batch size varies.
func CrossEntropyInto(gradBuf *tensor.Tensor, logits *tensor.Tensor, labels []int) (LossResult, error) {
	if logits.Dims() != 2 {
		return LossResult{}, fmt.Errorf("cross-entropy: logits must be 2-D, got %v", logits.Shape())
	}
	n, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return LossResult{}, fmt.Errorf("cross-entropy: %d labels for batch of %d", len(labels), n)
	}
	grad := tensor.Resize(gradBuf, [4]int{n, classes}, 2)
	ld, gd := logits.Data(), grad.Data()
	totalLoss := 0.0
	correct := 0
	invN := 1.0 / float64(n)
	for b := 0; b < n; b++ {
		y := labels[b]
		if y < 0 || y >= classes {
			return LossResult{}, fmt.Errorf("cross-entropy: label %d out of range [0,%d)", y, classes)
		}
		row := ld[b*classes : (b+1)*classes]
		// Stable log-softmax.
		m := math.Inf(-1)
		argmax := 0
		for i, v := range row {
			if v > m {
				m, argmax = v, i
			}
		}
		sumExp := 0.0
		for _, v := range row {
			sumExp += math.Exp(v - m)
		}
		logSum := m + math.Log(sumExp)
		totalLoss += logSum - row[y]
		if argmax == y {
			correct++
		}
		grow := gd[b*classes : (b+1)*classes]
		for i, v := range row {
			p := math.Exp(v - logSum)
			grow[i] = p * invN
		}
		grow[y] -= invN
	}
	return LossResult{
		Loss:       totalLoss * invN,
		Accuracy:   float64(correct) * invN,
		GradLogits: grad,
	}, nil
}

// Accuracy computes top-1 accuracy of logits [N, classes] against labels
// without building gradients (evaluation mode).
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, classes := logits.Dim(0), logits.Dim(1)
	ld := logits.Data()
	correct := 0
	for b := 0; b < n && b < len(labels); b++ {
		row := ld[b*classes : (b+1)*classes]
		best, bi := math.Inf(-1), 0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		if bi == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
