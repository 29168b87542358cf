package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// The conv hot path must not allocate at all once warm: column scratch, the
// output tensor and the input-gradient tensor come from the layer's arena,
// and GEMM workspaces from their pools (the package doc's buffer-ownership
// contract).

func TestConvForwardAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", rng, 8, 8, 3, ConvOpts{Pad: 1})
	x := tensor.Randn(rng, 1, 4, 8, 6, 6)
	c.Forward(x) // warm the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		_ = c.Forward(x)
	})
	if allocs > 0 {
		t.Fatalf("Conv2D.Forward allocates %.0f objects/call, want 0 (buffers not reused?)", allocs)
	}
}

func TestConvBackwardAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("c", rng, 8, 8, 3, ConvOpts{Pad: 1})
	x := tensor.Randn(rng, 1, 4, 8, 6, 6)
	out := c.Forward(x)
	grad := tensor.Full(1, out.Shape()...)
	c.Backward(grad) // warm the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		_ = c.Forward(x) // a backward's storage lasts until the next forward
		_ = c.Backward(grad)
	})
	if allocs > 0 {
		t.Fatalf("Conv2D.Backward allocates %.0f objects/call, want 0 (buffers not reused?)", allocs)
	}
}

// TestFastPathSteadyStateAllocs pins the layers around the GEMM: once warm,
// a forward/backward pair of the depthwise convolution (lane tables, padded
// planes and all), batch norm, the pools, the parameter-free ops and ReLU allocates nothing, so no
// new scratch can leak into the benchmark's allocs_per_op. (None of them
// goes through a sync.Pool, so the pin holds under -race as well.)
func TestFastPathSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		name string
		m    Module
	}{
		{"depthwise 3x3", NewConv2D("dw", rng, 8, 8, 3, ConvOpts{Pad: 1, Groups: 8})},
		{"depthwise 5x5 dilated stride 2", NewConv2D("dw", rng, 8, 8, 5, ConvOpts{Stride: 2, Pad: 4, Dilation: 2, Groups: 8})},
		{"depthwise with a remainder group", NewConv2D("dw", rng, 6, 6, 3, ConvOpts{Pad: 1, Groups: 6})},
		{"batch norm", NewBatchNorm2D("bn", 8)},
		{"max pool", NewMaxPool2D(3, 1, 1)},
		{"max pool stride 2", NewMaxPool2D(3, 2, 1)},
		{"avg pool", NewAvgPool2D(3, 1, 1)},
		{"avg pool stride 2", NewAvgPool2D(3, 2, 1)},
		{"global avg pool", NewGlobalAvgPool()},
		{"zero stride 2", NewZero(2)},
		{"subsample stride 2", NewSubSample(2)},
		{"relu", NewReLU()},
	} {
		c := 8
		if conv, ok := tc.m.(*Conv2D); ok {
			c = conv.InC
		}
		x := tensor.Randn(rng, 1, 4, c, 8, 8)
		grad := tensor.Randn(rng, 1, tc.m.Forward(x).Shape()...)
		tc.m.Backward(grad) // warm the scratch buffers
		allocs := testing.AllocsPerRun(20, func() {
			tc.m.Forward(x)
			tc.m.Backward(grad)
		})
		if allocs > 0 {
			t.Errorf("%s: forward+backward allocates %.0f objects/call, want 0", tc.name, allocs)
		}
	}
}

func TestConvScratchReuseKeepsResults(t *testing.T) {
	// Reusing scratch across differently-shaped inputs must not leak state:
	// run big, then small, then compare the small result against a fresh
	// layer with identical weights.
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", rng, 3, 5, 3, ConvOpts{Pad: 1, Bias: true})
	fresh := NewConv2D("f", rand.New(rand.NewSource(99)), 3, 5, 3, ConvOpts{Pad: 1, Bias: true})
	fresh.weight.Value.CopyFrom(c.weight.Value)
	fresh.bias.Value.CopyFrom(c.bias.Value)

	big := tensor.Randn(rng, 4, 2, 3, 12, 12)
	small := tensor.Randn(rng, 5, 2, 3, 6, 6)
	_ = c.Forward(big) // grows scratch past what small needs
	got := c.Forward(small)
	want := fresh.Forward(small)
	if !got.AllClose(want, 0) {
		t.Fatal("conv output after scratch reuse differs from fresh layer")
	}

	gradBig := tensor.Full(1, c.Forward(big).Shape()...)
	_ = c.Backward(gradBig)
	_ = c.Forward(small)
	ZeroGrads(c.Params())
	gradSmall := tensor.Full(1, got.Shape()...)
	gx := c.Backward(gradSmall)
	_ = fresh.Forward(small)
	ZeroGrads(fresh.Params())
	wx := fresh.Backward(gradSmall)
	if !gx.AllClose(wx, 0) {
		t.Fatal("conv input gradient after scratch reuse differs from fresh layer")
	}
	if !c.weight.Grad.AllClose(fresh.weight.Grad, 0) {
		t.Fatal("conv weight gradient after scratch reuse differs from fresh layer")
	}
}

func TestBatchNormStatCaptureReplayMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seq := NewBatchNorm2D("seq", 3)
	rep := NewBatchNorm2D("rep", 3)

	batches := make([]*tensor.Tensor, 4)
	for i := range batches {
		batches[i] = tensor.Randn(rng, 1, 2, 3, 4, 4)
	}

	// Sequential reference: plain training forwards update running stats.
	for _, x := range batches {
		_ = seq.Forward(x)
	}

	// Capture + replay: forwards log stats, ApplyStats replays them.
	rep.SetStatCapture(true)
	var outCap []*tensor.Tensor
	for _, x := range batches {
		// Clone: Forward's return is the layer's reused buffer (see the
		// package doc's ownership contract) and the next call overwrites it.
		outCap = append(outCap, rep.Forward(x).Clone())
	}
	stats := rep.DrainCapturedStats()
	if len(stats) != len(batches) {
		t.Fatalf("captured %d stat records, want %d", len(stats), len(batches))
	}
	rep.SetStatCapture(false)
	for _, s := range stats {
		rep.ApplyStats(s)
	}

	for ch := 0; ch < 3; ch++ {
		if seq.runningMean[ch] != rep.runningMean[ch] || seq.runningVar[ch] != rep.runningVar[ch] {
			t.Fatalf("channel %d: replayed running stats (%v,%v) != sequential (%v,%v)",
				ch, rep.runningMean[ch], rep.runningVar[ch], seq.runningMean[ch], seq.runningVar[ch])
		}
	}
	// The capturing forward's output must be identical to a plain training
	// forward (batch stats do not depend on running stats).
	seq2 := NewBatchNorm2D("seq2", 3)
	for i, x := range batches {
		if !seq2.Forward(x).AllClose(outCap[i], 0) {
			t.Fatalf("batch %d: capture-mode forward output differs from plain training forward", i)
		}
	}
}

func TestBatchNormCaptureLeavesRunningStatsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D("bn", 2)
	bn.SetStatCapture(true)
	_ = bn.Forward(tensor.Randn(rng, 1, 3, 2, 4, 4))
	for ch := 0; ch < 2; ch++ {
		if bn.runningMean[ch] != 0 || bn.runningVar[ch] != 1 {
			t.Fatalf("capture-mode forward mutated running stats: mean=%v var=%v",
				bn.runningMean, bn.runningVar)
		}
	}
	if n := len(bn.DrainCapturedStats()); n != 1 {
		t.Fatalf("drained %d records, want 1", n)
	}
	if n := len(bn.DrainCapturedStats()); n != 0 {
		t.Fatalf("second drain returned %d records, want 0", n)
	}
}

func TestCopyStatsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewBatchNorm2D("src", 2)
	for i := 0; i < 3; i++ {
		_ = src.Forward(tensor.Randn(rng, 1, 2, 2, 3, 3))
	}
	dst := NewBatchNorm2D("dst", 2)
	dst.CopyStatsFrom(src)
	for ch := 0; ch < 2; ch++ {
		if dst.runningMean[ch] != src.runningMean[ch] || dst.runningVar[ch] != src.runningVar[ch] {
			t.Fatal("CopyStatsFrom did not copy running statistics")
		}
	}
	if math.IsNaN(dst.runningVar[0]) {
		t.Fatal("copied running variance is NaN")
	}
}

func TestCollectBatchNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sep := NewSepConv("sep", rng, 4, 3, 1)    // 1 BN
	block := NewBasicBlock("blk", rng, 4)     // 2 BNs inside a Residual
	pre := NewReLUConvBN("pre", rng, 4, 4, 1) // 1 BN
	bns := CollectBatchNorms(sep, block, pre)
	if len(bns) != 4 {
		t.Fatalf("collected %d batch norms, want 4", len(bns))
	}
	// Deterministic, structure-aligned order: two identical trees must give
	// index-aligned lists.
	bns2 := CollectBatchNorms(NewSepConv("sep", rand.New(rand.NewSource(7)), 4, 3, 1))
	if len(bns2) != 1 || bns2[0].C != bns[0].C {
		t.Fatal("CollectBatchNorms order not structure-aligned")
	}
}
