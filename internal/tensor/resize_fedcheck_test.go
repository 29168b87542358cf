//go:build fedcheck

package tensor

import (
	"math"
	"testing"
)

// Under fedcheck, Resize hands back poisoned storage whether it reuses the
// capacity or allocates: a caller that reads an element it did not write
// after the resize computes NaNs instead of the last batch's values.
func TestResizePoisonsStorage(t *testing.T) {
	x := Resize(nil, [4]int{4, 3}, 2)
	for i, v := range x.Data() {
		if math.Float64bits(v) != poisonBits {
			t.Fatalf("fresh storage [%d] = %v, want the poison", i, v)
		}
	}
	for _, shape := range [][4]int{{2, 3}, {4, 3}, {1, 2, 2, 3}} {
		x.Fill(1)
		rank := 2
		if shape[2] != 0 {
			rank = 4
		}
		x = Resize(x, shape, rank)
		for i, v := range x.Data() {
			if math.Float64bits(v) != poisonBits {
				t.Fatalf("storage reused at %v: [%d] = %v, want the poison", shape[:rank], i, v)
			}
		}
	}
}
