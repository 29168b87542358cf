package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// kernelVariantsF64 returns every float64 kernel variant compiled into this
// binary: the portable reference plus, on asm builds, the SIMD variants.
func kernelVariantsF64() []*gemmKernelF64 {
	variants := []*gemmKernelF64{&gemmGo4x4}
	if gemmActiveF64 != &gemmGo4x4 {
		variants = append(variants, gemmActiveF64)
	}
	for _, kv := range []*gemmKernelF64{gemmShortF64, gemmRows6F64} {
		if kv != nil {
			variants = append(variants, kv)
		}
	}
	return variants
}

// TestKernelVariantsBitIdentical pins the contract that lets the dispatcher
// pick kernels freely: every compiled variant produces bit-identical output
// to the pure-Go reference at every shape, including ragged edges where the
// wider tiles are mostly padding. `make bench` runs this before timing, so
// a GFLOPS number can never come from a kernel that changed the answer.
func TestKernelVariantsBitIdentical(t *testing.T) {
	if !asmKernels {
		t.Log("no asm kernels in this build; verifying the reference against itself")
	}
	rng := rand.New(rand.NewSource(23))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 2}, {4, 8, 27}, {5, 9, 7}, {8, 8, 8},
		{8, 1024, 8}, {9, 17, 33}, {16, 10, 16}, {64, 48, 31},
		// Row counts the 6-row kernel takes (and 7, which it does not), at
		// whole and ragged widths.
		{6, 8, 6}, {6, 13, 6}, {6, 512, 6}, {12, 64, 12}, {12, 9, 5},
		{18, 16, 18}, {18, 21, 3}, {7, 16, 7}, {7, 11, 9},
	}
	for _, s := range shapes {
		for _, tA := range []bool{false, true} {
			for _, tB := range []bool{false, true} {
				lda := s.k
				if tA {
					lda = s.m
				}
				ldb := s.n
				if tB {
					ldb = s.k
				}
				a := randSlice(rng, s.m*s.k)
				b := randSlice(rng, s.k*s.n)
				cInit := randSlice(rng, s.m*s.n)
				// alpha 1 with beta 0 or 1 is where whole tiles are stored
				// straight from the registers; the rest go through gemmStore.
				for _, ab := range [][2]float64{{1.25, 0.5}, {1, 0}, {1, 1}} {
					want := append([]float64(nil), cInit...)
					gemmRawWith(&gemmGo4x4, tA, tB, s.m, s.n, s.k, ab[0], a, lda, b, ldb, ab[1], want, s.n)
					for _, kv := range kernelVariantsF64() {
						got := append([]float64(nil), cInit...)
						gemmRawWith(kv, tA, tB, s.m, s.n, s.k, ab[0], a, lda, b, ldb, ab[1], got, s.n)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("kernel %s (tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v): c[%d]=%g, reference %g",
									kv.name, tA, tB, s.m, s.n, s.k, ab[0], ab[1], i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmBatchedMatchesPerImage pins GemmRawBatched to the bits of one
// reference-kernel GEMM per image on widths that are whole column tiles, with
// operands embedded in larger strides the way activation tensors are, and
// pins that it declines every other width (and an empty batch) untouched.
func TestGemmBatchedMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range []struct{ count, m, n, k int }{
		{16, 4, 64, 4}, {16, 8, 16, 8}, {16, 16, 4, 16}, {3, 5, 24, 7}, {2, 9, 10, 3}, {1, 4, 8, 1}, {0, 4, 8, 4},
		{8, 6, 64, 6}, {8, 12, 16, 12},
	} {
		for _, tA := range []bool{false, true} {
			for _, beta := range []float64{0, 1} {
				lda := s.k
				if tA {
					lda = s.m
				}
				a := randSlice(rng, s.m*s.k)
				bStride, cStride := s.k*s.n+5, s.m*s.n+3
				b := randSlice(rng, s.count*bStride+1)
				cInit := randSlice(rng, s.count*cStride+1)
				want := append([]float64(nil), cInit...)
				wantRan := s.count > 0 && s.n%gemmKernelFor(s.m).nr == 0
				if wantRan {
					for i := 0; i < s.count; i++ {
						gemmRawWith(&gemmGo4x4, tA, false, s.m, s.n, s.k, 1, a, lda, b[i*bStride:], s.n, beta, want[i*cStride:], s.n)
					}
				}
				got := append([]float64(nil), cInit...)
				if ran := GemmRawBatched(tA, s.count, s.m, s.n, s.k, 1, a, lda, b, s.n, bStride, beta, got, s.n, cStride); ran != wantRan {
					t.Fatalf("batched %+v: ran = %v, want %v", s, ran, wantRan)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("batched %+v tA=%v beta=%v: c[%d]=%g, want %g", s, tA, beta, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemmFLOPCounterConcurrentTotal: the sharded counter loses nothing —
// the summed total equals the exact FLOP count of a known concurrent
// workload — and the fast path stays allocation-free.
func TestGemmFLOPCounterConcurrentTotal(t *testing.T) {
	const (
		goroutines = 8
		callsEach  = 50
		m, n, k    = 6, 7, 8
	)
	rng := rand.New(rand.NewSource(17))
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	before := GemmFLOPs()
	nanosBefore := GemmKernelNanos()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float64, m*n)
			for i := 0; i < callsEach; i++ {
				GemmRaw(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
			}
		}()
	}
	wg.Wait()
	want := int64(goroutines * callsEach * 2 * m * n * k)
	if got := GemmFLOPs() - before; got != want {
		t.Fatalf("sharded FLOP total = %d, want %d", got, want)
	}
	if GemmKernelNanos() == nanosBefore {
		t.Fatal("GemmKernelNanos did not advance across kernel calls")
	}
}

func TestGemmStatsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	allocs := testing.AllocsPerRun(100, func() {
		gemmAddStats(1, 1, 0xdeadbeef)
		_ = GemmFLOPs()
	})
	if allocs > 0 {
		t.Fatalf("stats path allocated %.1f times per op, want 0", allocs)
	}
}

// TestKernelInfo sanity-checks the reported selection against the build.
func TestKernelInfo(t *testing.T) {
	info := KernelInfo()
	if info.Arch != runtime.GOARCH {
		t.Fatalf("KernelInfo arch %q, want %q", info.Arch, runtime.GOARCH)
	}
	if info.KernelF64 == "" {
		t.Fatalf("KernelInfo names empty: %+v", info)
	}
	if !asmKernels && (info.AVX2 || info.KernelF64 != "go-4x4") {
		t.Fatalf("noasm build must select the go kernel: %+v", info)
	}
	if asmKernels && info.AVX2 && info.KernelF64 != "avx2-8x8" {
		t.Fatalf("AVX2 host should select avx2-8x8, got %+v", info)
	}
	// Which kernel each row count takes: the 6-row kernel exactly where m is
	// a multiple of 6 and not of 8.
	for _, tc := range []struct {
		m    int
		want string
	}{
		{1, "avx2-4x8"}, {4, "avx2-4x8"}, {6, "avx2-6x8"}, {12, "avx2-6x8"}, {18, "avx2-6x8"},
		{5, "avx2-8x8"}, {7, "avx2-8x8"}, {8, "avx2-8x8"}, {10, "avx2-8x8"}, {16, "avx2-8x8"}, {24, "avx2-8x8"}, {48, "avx2-8x8"},
	} {
		want := tc.want
		if !info.AVX2 {
			want = "go-4x4"
		}
		if got := gemmKernelFor(tc.m).name; got != want {
			t.Errorf("gemmKernelFor(%d) = %s, want %s", tc.m, got, want)
		}
	}
	wantDW := "go-lanes4"
	if asmKernels && info.AVX2 {
		wantDW = "avx2-lanes4"
	}
	if info.KernelDepthwise != wantDW {
		t.Fatalf("depthwise kernel %q, want %q", info.KernelDepthwise, wantDW)
	}
	wantEW := "go"
	if asmKernels && info.AVX2 {
		wantEW = "avx2"
	}
	if info.KernelElementwise != wantEW {
		t.Fatalf("element-wise kernel %q, want %q", info.KernelElementwise, wantEW)
	}
}
