package wire

import (
	"encoding/binary"
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
		{{math.MaxFloat64, -1e-40}, {}, {3.25}}, // overflow and subnormal as f32
	}
	for _, g := range seedGroups {
		for _, m := range []Mode{FP64, FP32} {
			f.Add(AppendGroup(nil, m, g))
		}
	}
	maxElems := binary.LittleEndian.AppendUint32(nil, MaxElems)
	for _, frame := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},                                   // tensor count past the frame
		{1, 0, 0, 0, tagDenseF64, 0xff, 0xff, 0xff, 0x7f},          // element count past MaxElems
		{1, 0, 0, 0, tagDenseF64, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // truncated f64 body
		{1, 0, 0, 0, tagDenseF32, 2, 0, 0, 0, 0, 0, 0, 0},          // truncated f32 body
		{1, 0, 0, 0, 3, 8, 0, 0, 0, 2, 0, 0, 0},                    // retired tag 3
		{1, 0, 0, 0, 4, 8, 0, 0, 0, 2, 0, 0, 0},                    // retired tag 4
		// 13-byte frames claiming MaxElems elements under each retired
		// tag: rejected before the decoder allocates for them.
		append(append([]byte{1, 0, 0, 0, 2}, maxElems...), 0, 0, 0, 0),
		append(append([]byte{1, 0, 0, 0, 3}, maxElems...), 0, 0, 0, 0),
		append(append([]byte{1, 0, 0, 0, 4}, maxElems...), 0, 0, 0, 0),
		// A valid one-element f64 tensor, then a retired tag.
		{2, 0, 0, 0, tagDenseF64, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 4, 0, 0, 0, 0},
		// A MaxElems f64 tensor with no body.
		append([]byte{1, 0, 0, 0, tagDenseF64}, maxElems...),
	} {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		g, n, err := DecodeGroup(frame)
		if err != nil {
			return
		}
		if n > len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		// A frame the decoder accepts must survive a lossless re-encode /
		// re-decode cycle (fp32 tags decode to float64, so re-encode
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
