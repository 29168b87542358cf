// Package data provides the synthetic image-classification datasets that
// stand in for CIFAR10 / SVHN / CIFAR100 (see DESIGN.md §2), the Dirichlet
// non-i.i.d. partitioner from FedNAS that the paper uses, batching, and the
// paper's augmentation pipeline (random crop, horizontal flip, cutout).
//
// Each synthetic class is a smooth random prototype field; samples are
// scaled, shifted, noised copies, with a controllable confusion term that
// blends in a neighbouring class's prototype so that classes overlap and
// architecture choice actually matters.
package data

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name          string
	NumClasses    int
	Channels      int
	Height, Width int
	TrainPerClass int
	TestPerClass  int
	// Noise is the per-pixel Gaussian noise scale.
	Noise float64
	// Confusion in [0,1) blends each sample with the next class's
	// prototype, controlling class overlap (task difficulty).
	Confusion float64
	Seed      int64
}

// CIFAR10S is the CIFAR10 stand-in: 10 classes, moderate difficulty.
func CIFAR10S() Spec {
	return Spec{
		Name: "cifar10s", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 64, TestPerClass: 16, Noise: 1.1, Confusion: 0.35, Seed: 1001,
	}
}

// SVHNS is the SVHN stand-in: 10 classes, easier than CIFAR10S (the paper's
// SVHN search converges in fewer steps).
func SVHNS() Spec {
	return Spec{
		Name: "svhns", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 64, TestPerClass: 16, Noise: 0.8, Confusion: 0.2, Seed: 2002,
	}
}

// CIFAR100S is the CIFAR100 stand-in used by the transfer experiments:
// more classes, fewer examples per class, harder.
func CIFAR100S() Spec {
	return Spec{
		Name: "cifar100s", NumClasses: 20, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.3, Confusion: 0.45, Seed: 3003,
	}
}

// SpecByName returns the named stand-in dataset: cifar10s, svhns or
// cifar100s.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "cifar10s":
		return CIFAR10S(), nil
	case "svhns":
		return SVHNS(), nil
	case "cifar100s":
		return CIFAR100S(), nil
	}
	return Spec{}, fmt.Errorf("unknown dataset %q", name)
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.NumClasses < 2:
		return fmt.Errorf("data: NumClasses %d < 2", s.NumClasses)
	case s.Channels <= 0 || s.Height <= 0 || s.Width <= 0:
		return fmt.Errorf("data: bad image dims %dx%dx%d", s.Channels, s.Height, s.Width)
	case s.TrainPerClass <= 0 || s.TestPerClass <= 0:
		return fmt.Errorf("data: per-class counts must be positive")
	case s.Confusion < 0 || s.Confusion >= 1:
		return fmt.Errorf("data: Confusion %v outside [0,1)", s.Confusion)
	}
	return nil
}

// Dataset is a generated train/test split.
type Dataset struct {
	Spec        Spec
	TrainImages *tensor.Tensor // [Ntrain, C, H, W]
	TrainLabels []int
	TestImages  *tensor.Tensor // [Ntest, C, H, W]
	TestLabels  []int

	prototypes []*tensor.Tensor // per-class [C,H,W]
}

// Generate builds the dataset deterministically from spec.Seed.
func Generate(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	d := &Dataset{Spec: spec}
	d.prototypes = make([]*tensor.Tensor, spec.NumClasses)
	for c := range d.prototypes {
		d.prototypes[c] = smoothField(rng, spec.Channels, spec.Height, spec.Width)
	}
	var err error
	d.TrainImages, d.TrainLabels, err = d.sampleSplit(rng, spec.TrainPerClass)
	if err != nil {
		return nil, err
	}
	d.TestImages, d.TestLabels, err = d.sampleSplit(rng, spec.TestPerClass)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// NumTrain returns the number of training samples.
func (d *Dataset) NumTrain() int { return len(d.TrainLabels) }

// NumTest returns the number of test samples.
func (d *Dataset) NumTest() int { return len(d.TestLabels) }

// Image returns a copy of training sample i as a [1,C,H,W] tensor.
func (d *Dataset) Image(i int) *tensor.Tensor {
	c, h, w := d.Spec.Channels, d.Spec.Height, d.Spec.Width
	img := tensor.New(1, c, h, w)
	size := c * h * w
	copy(img.Data(), d.TrainImages.Data()[i*size:(i+1)*size])
	return img
}

// Gather builds a batch tensor and label slice from training indices.
func (d *Dataset) Gather(indices []int) (*tensor.Tensor, []int) {
	return d.GatherInto(nil, nil, indices)
}

// GatherInto is Gather with caller-provided buffers: dst's storage and
// labelBuf's backing array are reused whenever their capacity holds the batch
// (tensor.Resize), so a buffer refilled at varying batch sizes is sized by
// the largest. It returns the (possibly newly allocated) batch and labels.
func (d *Dataset) GatherInto(dst *tensor.Tensor, labelBuf []int, indices []int) (*tensor.Tensor, []int) {
	return gatherInto(d.TrainImages, d.TrainLabels, d.Spec, dst, labelBuf, indices)
}

// GatherTest builds a batch tensor and label slice from test indices.
func (d *Dataset) GatherTest(indices []int) (*tensor.Tensor, []int) {
	return d.GatherTestInto(nil, nil, indices)
}

// GatherTestInto is GatherTest with caller-provided buffers, reused as
// GatherInto reuses them.
func (d *Dataset) GatherTestInto(dst *tensor.Tensor, labelBuf []int, indices []int) (*tensor.Tensor, []int) {
	return gatherInto(d.TestImages, d.TestLabels, d.Spec, dst, labelBuf, indices)
}

func gatherInto(images *tensor.Tensor, labels []int, spec Spec, dst *tensor.Tensor, labelBuf []int, indices []int) (*tensor.Tensor, []int) {
	c, h, w := spec.Channels, spec.Height, spec.Width
	size := c * h * w
	dst = tensor.Resize(dst, [4]int{len(indices), c, h, w}, 4)
	if cap(labelBuf) < len(indices) {
		labelBuf = make([]int, len(indices))
	}
	labelBuf = labelBuf[:len(indices)]
	od, id := dst.Data(), images.Data()
	for bi, idx := range indices {
		copy(od[bi*size:(bi+1)*size], id[idx*size:(idx+1)*size])
		labelBuf[bi] = labels[idx]
	}
	return dst, labelBuf
}

func (d *Dataset) sampleSplit(rng *rand.Rand, perClass int) (*tensor.Tensor, []int, error) {
	spec := d.Spec
	n := spec.NumClasses * perClass
	c, h, w := spec.Channels, spec.Height, spec.Width
	images := tensor.New(n, c, h, w)
	labels := make([]int, n)
	size := c * h * w
	// Interleave classes so any prefix is class-balanced.
	for i := 0; i < n; i++ {
		class := i % spec.NumClasses
		labels[i] = class
		proto := d.prototypes[class].Data()
		confuse := d.prototypes[(class+1)%spec.NumClasses].Data()
		scale := 0.8 + 0.4*rng.Float64()
		mix := spec.Confusion * rng.Float64()
		dst := images.Data()[i*size : (i+1)*size]
		for j := 0; j < size; j++ {
			dst[j] = scale*((1-mix)*proto[j]+mix*confuse[j]) + spec.Noise*rng.NormFloat64()
		}
	}
	return images, labels, nil
}

// smoothField builds a [C,H,W] prototype by bilinearly upsampling a coarse
// random grid, producing spatial structure a convolution can exploit.
func smoothField(rng *rand.Rand, c, h, w int) *tensor.Tensor {
	const coarse = 3
	out := tensor.New(c, h, w)
	od := out.Data()
	for ch := 0; ch < c; ch++ {
		grid := make([]float64, coarse*coarse)
		for i := range grid {
			grid[i] = rng.NormFloat64()
		}
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h-1) * float64(coarse-1)
			y0 := int(fy)
			if y0 >= coarse-1 {
				y0 = coarse - 2
			}
			ty := fy - float64(y0)
			for x := 0; x < w; x++ {
				fx := float64(x) / float64(w-1) * float64(coarse-1)
				x0 := int(fx)
				if x0 >= coarse-1 {
					x0 = coarse - 2
				}
				tx := fx - float64(x0)
				v := (1-ty)*((1-tx)*grid[y0*coarse+x0]+tx*grid[y0*coarse+x0+1]) +
					ty*((1-tx)*grid[(y0+1)*coarse+x0]+tx*grid[(y0+1)*coarse+x0+1])
				od[(ch*h+y)*w+x] = v
			}
		}
	}
	return out
}
