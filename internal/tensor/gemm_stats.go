package tensor

import (
	"runtime"
	"sync/atomic"
)

// The FLOP counter used to be a single atomic.Int64, a cacheline every
// worker goroutine bounced on on every GEMM call (including tiny inline
// products). It is now striped across padded shards: each call hashes to a
// shard from the address of its pooled scratch object — concurrent GEMMs
// necessarily hold distinct scratch objects, so concurrent workers land on
// distinct cachelines with high probability — and readers sum the stripe.

// gemmStatShards is a power of two so the shard index is a mask, sized past
// any plausible worker count on one host.
const gemmStatShards = 32

// gemmStatShard pads each counter pair out to its own 64-byte cacheline so
// neighbouring shards never false-share.
type gemmStatShard struct {
	flops atomic.Int64
	nanos atomic.Int64
	_     [48]byte
}

var gemmStats [gemmStatShards]gemmStatShard

// gemmAddStats records one kernel invocation: flops is 2·m·n·k, nanos the
// wall time spent packing and multiplying (the packed panels are part of
// the kernel's cost, so they are on the clock). hint selects the shard;
// callers pass their scratch object's address.
func gemmAddStats(flops, nanos int64, hint uintptr) {
	// Heap objects are at least 16-byte aligned; shift those dead bits out
	// and fold in higher bits so neighbouring pool objects spread.
	shard := (hint >> 4) ^ (hint >> 9)
	s := &gemmStats[shard%gemmStatShards]
	s.flops.Add(flops)
	s.nanos.Add(nanos)
}

// GemmFLOPs returns the cumulative floating-point operation count of every
// Gemm call in this process (float64 and float32 kernels both count).
// Benchmarks read it before and after a timed region to report achieved
// GFLOP/s.
func GemmFLOPs() int64 {
	var total int64
	for i := range gemmStats {
		total += gemmStats[i].flops.Load()
	}
	return total
}

// GemmKernelNanos returns the cumulative wall-clock nanoseconds spent inside
// GEMM kernel calls (packing included). GemmFLOPs()/GemmKernelNanos() is the
// kernel-achieved FLOP rate, as opposed to FLOPs over total elapsed time
// which dilutes the kernel with everything around it.
func GemmKernelNanos() int64 {
	var total int64
	for i := range gemmStats {
		total += gemmStats[i].nanos.Load()
	}
	return total
}

// KernelFeatures reports the CPU capabilities detected at init and the GEMM
// kernel variants selected for this process, so benchmark reports are
// comparable across hosts.
type KernelFeatures struct {
	Arch string `json:"arch"`
	// AVX2 and FMA are the detected CPU capabilities. FMA is reported but
	// deliberately unused by the kernels: a fused multiply-add rounds once
	// where the pure-Go reference rounds twice, which would break the
	// bit-identity contract between kernel variants.
	AVX2 bool `json:"avx2"`
	FMA  bool `json:"fma"`
	// KernelF64 and KernelF32 name the selected micro-kernel variants
	// (e.g. "avx2-8x8", "go-4x4").
	KernelF64 string `json:"kernel_f64"`
	KernelF32 string `json:"kernel_f32"`
	// KernelDepthwise names the depthwise-convolution code that runs:
	// "avx2-lanes4", or "direct" when no vector kernel was selected and
	// nn.Conv2D keeps its valid-range loops (see DepthwiseSIMD).
	KernelDepthwise string `json:"kernel_depthwise"`
}

// KernelInfo returns the kernel selection made at package init.
func KernelInfo() KernelFeatures {
	return KernelFeatures{
		Arch:      runtime.GOARCH,
		AVX2:      cpuHasAVX2,
		FMA:       cpuHasFMA,
		KernelF64: gemmActiveF64.name,
		KernelF32: gemmActiveF32.name,

		KernelDepthwise: depthwiseKernelName(),
	}
}

// cpuHasAVX2/cpuHasFMA are set by the amd64 init (gemm_amd64.go) and stay
// false on other architectures or under -tags noasm.
var cpuHasAVX2, cpuHasFMA bool
