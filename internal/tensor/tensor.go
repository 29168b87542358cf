// Package tensor provides a small dense float64 tensor used as the numeric
// substrate for the from-scratch deep-learning stack in this repository.
//
// Shapes are row-major. The package is deliberately minimal: only the
// operations the NAS substrate needs are implemented, and all of them are
// written for clarity and determinism rather than raw throughput.
//
// Shape mismatches are programmer errors: functions in this package panic on
// malformed shapes (like indexing a slice out of range would) instead of
// returning errors. All data-dependent failure modes return errors.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float64, n)}
}

// FromSlice wraps data (copied) into a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape size %d", len(data), n))
	}
	t := &Tensor{shape: cloneInts(shape), data: make([]float64, n)}
	copy(t.data, data)
	return t
}

// Reuse returns a tensor of the given shape for a caller that will write all
// of it: buf itself when its shape already matches, a new tensor over buf's
// storage when that is large enough, a fresh zeroed tensor otherwise (buf may
// be nil). Reused storage is NOT cleared: a caller that accumulates into the
// result must Zero it first. buf is never resized in place — it keeps its
// shape and length but shares the memory, so the caller must be done with
// what it held. Growing only when the storage is too small is what keeps a
// layer fed batches of varying size (a cohort of unequal shards, a serving
// queue) from allocating and clearing every activation on every call.
func Reuse(buf *Tensor, shape ...int) *Tensor {
	if buf != nil && buf.ShapeIs(shape...) {
		return buf
	}
	// Keep a copy, so the variadic slice does not escape and a caller whose
	// shape repeats allocates nothing.
	own := cloneInts(shape)
	n := checkShape(own)
	if buf != nil && cap(buf.data) >= n {
		return &Tensor{shape: own, data: buf.data[:n]}
	}
	return &Tensor{shape: own, data: make([]float64, n)}
}

// ReuseLike is Reuse with src's shape.
func ReuseLike(buf, src *Tensor) *Tensor { return Reuse(buf, src.shape...) }

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor with entries drawn from N(0, std^2).
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// KaimingConv initializes a conv weight tensor of shape
// [outC, inC, kH, kW] with Kaiming-style fan-in scaling.
func KaimingConv(rng *rand.Rand, outC, inC, kH, kW int) *Tensor {
	fanIn := inC * kH * kW
	std := math.Sqrt(2.0 / float64(fanIn))
	return Randn(rng, std, outC, inC, kH, kW)
}

// KaimingLinear initializes a linear weight tensor of shape [out, in].
func KaimingLinear(rng *rand.Rand, out, in int) *Tensor {
	std := math.Sqrt(2.0 / float64(in))
	return Randn(rng, std, out, in)
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor; this
// is intentional — hot loops in the nn package index it directly.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: cloneInts(t.shape), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Sizes must match.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a view-copy with a new shape of the same total size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape size %d != %d", n, len(t.data)))
	}
	c := t.Clone()
	c.shape = cloneInts(shape)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// ShapeIs reports whether t's shape equals the given dims. Layers use it to
// decide whether a persistent output buffer can be reused for this call.
func (t *Tensor) ShapeIs(shape ...int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i := range shape {
		if t.shape[i] != shape[i] {
			return false
		}
	}
	return true
}

// String renders a short description (shape plus a few leading values).
func (t *Tensor) String() string {
	k := len(t.data)
	if k > 6 {
		k = 6
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:k])
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}
