//go:build !amd64 || noasm

package tensor

// Fallback build (non-amd64 architectures, or -tags noasm): the pure-Go
// 4×4 kernel declared in gemm.go stays selected and no CPU feature
// detection runs. check.sh builds and tests this path on every run so it
// cannot rot.

const asmKernels = false
