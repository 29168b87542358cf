package tensor

import (
	"math/rand"
	"testing"
)

// naiveGemm is the reference implementation: the plain three-loop matmul
// with one ascending-k accumulator per output element. The packed kernel
// promises bit-identical results (==, not tolerance) to this order.
func naiveGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for p := 0; p < k; p++ {
				var av, bv float64
				if transA {
					av = a[p*lda+i]
				} else {
					av = a[i*lda+p]
				}
				if transB {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				acc += av * bv
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * acc
			} else {
				c[i*ldc+j] = alpha*acc + beta*c[i*ldc+j]
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// gemmCase runs the packed kernel and the naive reference on the same
// random operands and requires exact equality.
func gemmCase(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k int, alpha, beta float64) {
	t.Helper()
	lda := k
	if transA {
		lda = m
	}
	ldb := n
	if transB {
		ldb = k
	}
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	cInit := randSlice(rng, m*n)
	got := append([]float64(nil), cInit...)
	want := append([]float64(nil), cInit...)
	GemmRaw(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, got, n)
	naiveGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Gemm(tA=%v tB=%v m=%d n=%d k=%d α=%v β=%v): c[%d]=%g, want %g (must be bit-identical)",
				transA, transB, m, n, k, alpha, beta, i, got[i], want[i])
		}
	}
}

func TestGemmMatchesNaiveExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{1, 17, 5},  // 1×N
		{17, 1, 5},  // N×1
		{3, 3, 3},   // all below the 4×4 block
		{4, 4, 4},   // exactly one block
		{5, 6, 7},   // one block plus ragged edges
		{8, 12, 16}, // whole blocks only
		{13, 9, 11}, // odd everything
		{130, 3, 2}, // spans the gemmMC row tile
		{2, 130, 9},
		{33, 33, 1}, // k=1 degenerate reduction
	}
	params := []struct{ alpha, beta float64 }{
		{1, 0}, {1, 1}, {2.5, 0}, {-1, 0.5}, {0, 1}, {0, 0},
	}
	for _, s := range shapes {
		for _, p := range params {
			for _, tA := range []bool{false, true} {
				for _, tB := range []bool{false, true} {
					gemmCase(t, rng, tA, tB, s.m, s.n, s.k, p.alpha, p.beta)
				}
			}
		}
	}
}

func TestGemmFuzzVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		alpha := rng.NormFloat64()
		beta := 0.0
		if rng.Intn(2) == 1 {
			beta = rng.NormFloat64()
		}
		gemmCase(t, rng, rng.Intn(2) == 1, rng.Intn(2) == 1, m, n, k, alpha, beta)
	}
}

func TestGemmEmptyProblems(t *testing.T) {
	// k=0: C degenerates to beta-scaling; m or n = 0: no-op on c.
	c := []float64{1, 2, 3, 4}
	GemmRaw(false, false, 2, 2, 0, 1, nil, 0, nil, 0, 0.5, c, 2)
	for i, want := range []float64{0.5, 1, 1.5, 2} {
		if c[i] != want {
			t.Fatalf("k=0 beta-scale: c[%d]=%g, want %g", i, c[i], want)
		}
	}
	GemmRaw(false, false, 2, 2, 0, 1, nil, 0, nil, 0, 0, c, 2)
	for i := range c {
		if c[i] != 0 {
			t.Fatalf("k=0 beta=0: c[%d]=%g, want 0", i, c[i])
		}
	}
	GemmRaw(false, false, 0, 3, 5, 1, nil, 5, make([]float64, 15), 3, 0, nil, 3)
	GemmRaw(false, false, 3, 0, 5, 1, make([]float64, 15), 5, nil, 0, 0, nil, 0)
}

func TestGemmTensorAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 5, 7)
	b := Randn(rng, 1, 7, 6)
	dst := New(5, 6)
	GemmInto(dst, a, b)
	want := make([]float64, 5*6)
	naiveGemm(false, false, 5, 6, 7, 1, a.Data(), 7, b.Data(), 6, 0, want, 6)
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("GemmInto: dst[%d]=%g, want %g", i, v, want[i])
		}
	}

	// Accumulating trans variant: dst += aᵀ·bᵀ.
	at := Randn(rng, 1, 7, 5) // op(at) is 5×7
	bt := Randn(rng, 1, 6, 7) // op(bt) is 7×6
	acc := dst.Clone()
	Gemm(acc, 1, at, true, bt, true, 1)
	want2 := append([]float64(nil), dst.Data()...)
	naiveGemm(true, true, 5, 6, 7, 1, at.Data(), 5, bt.Data(), 7, 1, want2, 6)
	for i, v := range acc.Data() {
		if v != want2[i] {
			t.Fatalf("Gemm trans/accumulate: dst[%d]=%g, want %g", i, v, want2[i])
		}
	}
}

func TestGemmShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := New(2, 3)
	b := New(3, 4)
	expectPanic("inner mismatch", func() { GemmInto(New(2, 4), a, New(4, 4)) })
	expectPanic("dst mismatch", func() { GemmInto(New(3, 4), a, b) })
	expectPanic("non-2D", func() { GemmInto(New(2, 4), New(2, 3, 1), b) })
}

func TestGemmSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 8, 27)
	b := Randn(rng, 1, 27, 64)
	dst := New(8, 64)
	Gemm(dst, 1, a, false, b, false, 0) // warm the workspace pool
	allocs := testing.AllocsPerRun(50, func() {
		Gemm(dst, 1, a, false, b, false, 0)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Gemm allocated %.1f times per call, want 0", allocs)
	}
}

func TestGemmFLOPCounter(t *testing.T) {
	before := GemmFLOPs()
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 3, 4)
	b := Randn(rng, 1, 4, 5)
	GemmInto(New(3, 5), a, b)
	if got, want := GemmFLOPs()-before, int64(2*3*4*5); got != want {
		t.Fatalf("GemmFLOPs delta = %d, want %d", got, want)
	}
}

// DARTS cell shapes actually hit per round on the CIFAR10S workload
// (BatchSize=16, 8×8 images → 1024 lowered columns): the stem conv, a
// pointwise mixed-op conv, the gradW reduction, and the classifier head.
var benchShapes = []struct {
	name           string
	m, n, k        int
	transA, transB bool
}{
	{"stem_4x1024x27", 4, 1024, 27, false, false},
	{"pointwise_8x1024x8", 8, 1024, 8, false, false},
	{"gradW_8x72_k4096", 8, 72, 4096, false, true},
	{"linear_16x10x16", 16, 10, 16, false, true},
}

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rows, cols := s.m, s.k
			if s.transA {
				rows, cols = cols, rows
			}
			a := randSlice(rng, rows*cols)
			lda := cols
			rows, cols = s.k, s.n
			if s.transB {
				rows, cols = cols, rows
			}
			bm := randSlice(rng, rows*cols)
			ldb := cols
			c := make([]float64, s.m*s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmRaw(s.transA, s.transB, s.m, s.n, s.k, 1, a, lda, bm, ldb, 0, c, s.n)
			}
			b.StopTimer()
			flops := float64(2*s.m*s.n*s.k) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkGemmNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := benchShapes[0]
	a := randSlice(rng, s.m*s.k)
	bm := randSlice(rng, s.k*s.n)
	c := make([]float64, s.m*s.n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveGemm(false, false, s.m, s.n, s.k, 1, a, s.k, bm, s.n, 0, c, s.n)
	}
}
