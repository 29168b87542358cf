package wire

import (
	"math"
	"testing"
)

// FuzzDecodeGroup feeds arbitrary bytes to the decoder. The contract under
// test: malformed frames return an error — they never panic and never
// allocate past MaxElems per tensor. Valid frames (the seeds) must
// re-encode to themselves under the mode that produced them.
func FuzzDecodeGroup(f *testing.F) {
	seedGroups := [][][]float64{
		nil,
		{{}},
		{{1.5, -2.0}, {0, 0, 0, 0}},
		{make([]float64, 64)},
		{{math.NaN(), math.Inf(1), 5e-324, math.Copysign(0, -1)}},
	}
	for _, g := range seedGroups {
		for _, m := range []Mode{FP64, FP32, TopK} {
			f.Add(AppendGroup(nil, m, g))
		}
		// Top-k frames (tag 4), one tensor per frame with a ~25% selection.
		for _, t := range g {
			k := TopKCount(len(t), 0.25)
			f.Add(AppendTensorTopK(AppendGroupHeader(nil, 1), t, TopKIndices(t, k, nil)))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 3, 8, 0, 0, 0, 2, 0, 0, 0}) // retired tag 3
	f.Add([]byte{1, 0, 0, 0, tagTopK, 8, 0, 0, 0, 2, 0, 0, 0})

	f.Fuzz(func(t *testing.T, frame []byte) {
		// The delta decoder must also never panic, whatever the bytes; its
		// base shapes are picked to sometimes match the seeds.
		base := [][]float64{make([]float64, 2), make([]float64, 4)}
		_, _ = DecodeGroupDelta(frame, base)

		g, n, err := DecodeGroup(frame)
		if err != nil {
			return
		}
		if n > len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		// A frame the decoder accepts must survive a lossless re-encode /
		// re-decode cycle (fp32/top-k tags decode to float64, so re-encode
		// under FP64 which represents anything).
		re := AppendGroup(nil, FP64, g)
		g2, _, err := DecodeGroup(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(g2) != len(g) {
			t.Fatalf("re-encode changed group length %d -> %d", len(g), len(g2))
		}
		for i := range g {
			if len(g2[i]) != len(g[i]) {
				t.Fatalf("tensor %d length %d -> %d", i, len(g[i]), len(g2[i]))
			}
			for j := range g[i] {
				if math.Float64bits(g2[i][j]) != math.Float64bits(g[i][j]) {
					t.Fatalf("tensor %d[%d] bits changed", i, j)
				}
			}
		}
	})
}
