package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	x.Set(9, 1, 0)
	if got := x.At(1, 0); got != 9 {
		t.Errorf("At(1,0) after Set = %v, want 9", got)
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2}
	x := FromSlice(src, 2)
	src[0] = 99
	if x.At(0) != 1 {
		t.Error("FromSlice must copy its input")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(7, 0)
	if x.At(0) != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	if y.Dims() != 1 || y.Dim(0) != 4 {
		t.Fatalf("Reshape shape = %v", y.Shape())
	}
	if y.At(3) != 4 {
		t.Errorf("Reshape lost data: %v", y.Data())
	}
}

func TestPanicOnBadShape(t *testing.T) {
	cases := []func(){
		func() { New() },
		func() { New(0, 3) },
		func() { New(-1) },
		func() { FromSlice([]float64{1}, 2) },
		func() { FromSlice([]float64{1, 2}, 2).At(2) },
		func() { FromSlice([]float64{1, 2}, 2).At(0, 0) },
		func() { New(2, 1<<32, 1<<32) }, // the product wraps to 0
		func() { FromSlice(nil, 2, 1<<32, 1<<32) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b).Data(); got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b).Data(); got[1] != 10 {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2).Data(); got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	c := a.Clone()
	c.AXPY(2, b)
	if c.At(0) != 9 {
		t.Errorf("AXPY = %v", c.Data())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, 3}, 4)
	if x.Sum() != 8 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2 {
		t.Errorf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 {
		t.Errorf("Max = %v", x.Max())
	}
	if x.ArgMax() != 1 {
		t.Errorf("ArgMax = %v", x.ArgMax())
	}
	if got := x.L2Norm(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("L2Norm = %v", got)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !MatMul(a, eye).AllClose(a, 1e-12) {
		t.Error("A @ I != A")
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Numerical stability with huge logits.
	p = Softmax([]float64{1000, 1000})
	if math.IsNaN(p[0]) || math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("softmax unstable: %v", p)
	}
}

func TestClipL2(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2) // norm 5
	pre := ClipL2(1, a)
	if math.Abs(pre-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v", pre)
	}
	if got := a.L2Norm(); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-clip norm = %v", got)
	}
	// Below threshold: untouched.
	b := FromSlice([]float64{0.1}, 1)
	ClipL2(10, b)
	if b.At(0) != 0.1 {
		t.Error("ClipL2 modified tensor below threshold")
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float64{1, math.NaN()}, 2)
	if !x.HasNaN() {
		t.Error("HasNaN missed NaN")
	}
	y := FromSlice([]float64{1, math.Inf(1)}, 2)
	if !y.HasNaN() {
		t.Error("HasNaN missed Inf")
	}
	z := FromSlice([]float64{1, 2}, 2)
	if z.HasNaN() {
		t.Error("HasNaN false positive")
	}
	// Every position, among finite extremes and a negative zero.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		for i := 0; i < 9; i++ {
			w := FromSlice([]float64{1, -2, 0, math.MaxFloat64, -math.MaxFloat64, 5, math.Copysign(0, -1), 7, 8}, 9)
			if w.HasNaN() {
				t.Fatal("HasNaN false positive on finite extremes")
			}
			w.Data()[i] = bad
			if !w.HasNaN() {
				t.Fatalf("HasNaN missed %v at %d", bad, i)
			}
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Randn(rng, 2, 3, 4, 2)
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != x.WireSize() {
		t.Errorf("wrote %d bytes, WireSize says %d", n, x.WireSize())
	}
	y, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if !x.AllClose(y, 0) {
		t.Error("round trip lost data")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	// Rank too large.
	if _, err := ReadFrom(bytes.NewReader([]byte{200, 0, 0, 0})); err == nil {
		t.Error("expected error for huge rank")
	}
	// Truncated stream.
	x := FromSlice([]float64{1, 2, 3}, 3)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated stream")
	}
}

// Property: Add is commutative and Sub(Add(a,b), b) == a.
func TestAddProperties(t *testing.T) {
	f := func(vals [6]float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite inputs
			}
		}
		a := FromSlice(vals[:3], 3)
		b := FromSlice(vals[3:], 3)
		if !a.Add(b).AllClose(b.Add(a), 1e-9) {
			return false
		}
		return a.Add(b).Sub(b).AllClose(a, 1e-6*(1+a.L2Norm()+b.L2Norm()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		left := MatMul(a, b.Add(c))
		right := MatMul(a, b).Add(MatMul(a, c))
		if !left.AllClose(right, 1e-9) {
			t.Fatalf("trial %d: distribution violated", trial)
		}
	}
}

// Property: softmax output is a probability vector for arbitrary finite logits.
func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(raw [5]float64) bool {
		logits := make([]float64, 5)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits[i] = math.Mod(v, 50)
		}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(5)), 1, 10)
	b := Randn(rand.New(rand.NewSource(5)), 1, 10)
	if !a.AllClose(b, 0) {
		t.Error("Randn not deterministic for equal seeds")
	}
}

// Resize rewrites the header in place and reuses the storage whenever its
// capacity holds the new size, so a buffer refilled at varying sizes is
// sized by the largest and a refill within it allocates nothing.
func TestResizeReusesCapacity(t *testing.T) {
	x := Resize(nil, [4]int{16, 2, 3, 3}, 4)
	if !x.ShapeIs(16, 2, 3, 3) || x.Size() != 288 {
		t.Fatalf("new: shape %v, size %d", x.Shape(), x.Size())
	}
	base := &x.Data()[0]
	for _, c := range []struct {
		shape [4]int
		rank  int
	}{{[4]int{3, 2, 3, 3}, 4}, {[4]int{16, 2, 3, 3}, 4}, {[4]int{11, 5}, 2}, {[4]int{288}, 1}} {
		if y := Resize(x, c.shape, c.rank); y != x {
			t.Fatal("Resize returned another header")
		}
		if !x.ShapeIs(c.shape[:c.rank]...) || x.Size() != checkShape(c.shape[:c.rank]) || &x.Data()[0] != base {
			t.Fatalf("resize to %v: shape %v, size %d, storage moved %v", c.shape[:c.rank], x.Shape(), x.Size(), &x.Data()[0] != base)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		Resize(x, [4]int{3, 2, 3, 3}, 4)
		Resize(x, [4]int{16, 2, 3, 3}, 4)
	}); allocs != 0 {
		t.Errorf("a resize within capacity allocates %.1f objects, want 0", allocs)
	}
	Resize(x, [4]int{17, 2, 3, 3}, 4)
	if x.Size() != 306 || &x.Data()[0] == base {
		t.Fatalf("a resize past capacity kept the storage (size %d)", x.Size())
	}
}
