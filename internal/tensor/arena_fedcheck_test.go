//go:build fedcheck

package tensor

import (
	"math"
	"testing"
)

// Under fedcheck, storage a Reset releases reads as the poison pattern — a
// NaN that survives arithmetic, and an index no slice has — and so does a
// fresh slab.
func TestArenaPoisonsReleasedStorage(t *testing.T) {
	var a Arena
	f, n := a.Floats(8), a.Ints(8)
	for i := range f {
		if math.Float64bits(f[i]) != poisonBits || n[i] != poisonBits {
			t.Fatalf("fresh storage [%d] = %v / %d, want the poison", i, f[i], n[i])
		}
	}
	clear(f)
	clear(n)
	a.Reset()
	f, n = a.Floats(8), a.Ints(8)
	for i := range f {
		if !math.IsNaN(f[i]+1) || n[i] != poisonBits {
			t.Fatalf("released storage [%d] = %v / %d, want the poison", i, f[i], n[i])
		}
	}
}
