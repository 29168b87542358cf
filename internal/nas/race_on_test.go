//go:build race

package nas

// Under the race detector sync.Pool randomly drops Puts, so pool-backed
// GEMM scratch occasionally re-allocates; alloc-pinning tests skip there.
const raceEnabled = true
