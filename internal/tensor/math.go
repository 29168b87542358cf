package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o elementwise as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustSameShape(o, "Add")
	r := t.Clone()
	for i := range r.data {
		r.data[i] += o.data[i]
	}
	return r
}

// AddInPlace adds o into t elementwise (AddTo).
func (t *Tensor) AddInPlace(o *Tensor) {
	t.mustSameShape(o, "AddInPlace")
	AddTo(t.data, o.data)
}

// Sub returns t - o elementwise as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	r := New(t.shape...)
	t.SubInto(r, o)
	return r
}

// SubInto writes t - o elementwise into dst, which must have t's shape.
func (t *Tensor) SubInto(dst, o *Tensor) {
	t.mustSameShape(o, "SubInto")
	t.mustSameShape(dst, "SubInto")
	for i, v := range t.data {
		dst.data[i] = v - o.data[i]
	}
}

// Mul returns the elementwise (Hadamard) product as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.mustSameShape(o, "Mul")
	r := t.Clone()
	for i := range r.data {
		r.data[i] *= o.data[i]
	}
	return r
}

// MulInPlace multiplies o into t elementwise.
func (t *Tensor) MulInPlace(o *Tensor) {
	t.mustSameShape(o, "MulInPlace")
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
}

// Scale returns c * t as a new tensor.
func (t *Tensor) Scale(c float64) *Tensor {
	r := t.Clone()
	for i := range r.data {
		r.data[i] *= c
	}
	return r
}

// ScaleInPlace multiplies every element by c.
func (t *Tensor) ScaleInPlace(c float64) {
	for i := range t.data {
		t.data[i] *= c
	}
}

// AXPY performs t += a*x (like BLAS axpy).
func (t *Tensor) AXPY(a float64, x *Tensor) {
	t.mustSameShape(x, "AXPY")
	for i := range t.data {
		t.data[i] += a * x.data[i]
	}
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	s := 0.0
	for i := range t.data {
		s += t.data[i] * o.data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Apply returns a new tensor with f applied elementwise.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	r := t.Clone()
	for i := range r.data {
		r.data[i] = f(r.data[i])
	}
	return r
}

// ApplyInPlace applies f to every element of t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) {
	for i := range t.data {
		t.data[i] = f(t.data[i])
	}
}

// MatMul multiplies two 2-D tensors: [m,k] x [k,n] -> [m,n]. It allocates
// the result; hot paths should hold a persistent destination and call
// GemmInto (or Gemm for trans/accumulate forms) instead.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	out := New(a.shape[0], b.shape[1])
	GemmInto(out, a, b)
	return out
}

// AllClose reports whether every element of t is within tol of o.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Softmax returns the softmax over a 1-D tensor (numerically stabilized).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto writes the numerically stabilized softmax of logits into dst.
// dst and logits may alias; per-step paths use this to avoid allocating.
func SoftmaxInto(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("tensor: SoftmaxInto length mismatch %d vs %d", len(dst), len(logits)))
	}
	m := math.Inf(-1)
	for _, v := range logits {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// ClipL2 scales the set of tensors in place so their joint L2 norm does not
// exceed maxNorm, and returns the pre-clip norm.
func ClipL2(maxNorm float64, ts ...*Tensor) float64 {
	s := 0.0
	for _, t := range ts {
		for _, v := range t.data {
			s += v * v
		}
	}
	norm := math.Sqrt(s)
	if norm > maxNorm && norm > 0 {
		c := maxNorm / norm
		for _, t := range ts {
			t.ScaleInPlace(c)
		}
	}
	return norm
}

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}
