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

// Under fedcheck, the words a Release hands back read as the poison at
// once, across slabs too, while the takes before the mark keep their
// values.
func TestArenaPoisonsReleasedWords(t *testing.T) {
	var a Arena
	keep := a.Floats(3)
	clear(keep)
	m := a.Mark()
	f, n := a.Floats(5), a.Ints(7)
	big := a.Floats(100) // past the first slab
	clear(f)
	clear(n)
	clear(big)
	a.Release(m)
	for i, v := range keep {
		if v != 0 {
			t.Fatalf("kept storage [%d] = %v after a Release, want 0", i, v)
		}
	}
	for _, s := range [][]float64{f, intWords(n), big} {
		for i, v := range s {
			if math.Float64bits(v) != poisonBits {
				t.Fatalf("released word [%d] = %v, want the poison", i, v)
			}
		}
	}
}
