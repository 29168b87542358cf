package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestTopKCount(t *testing.T) {
	cases := []struct {
		n     int
		ratio float64
		want  int
	}{
		{0, 0.1, 0}, {1, 0.1, 1}, {10, 0.1, 1}, {11, 0.1, 2},
		{100, 0.25, 25}, {7, 0.5, 4}, {5, 0, 1}, {5, 2, 5}, {5, 1, 5},
	}
	for _, c := range cases {
		if got := TopKCount(c.n, c.ratio); got != c.want {
			t.Fatalf("TopKCount(%d, %v) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
}

func TestTopKIndicesSelection(t *testing.T) {
	// Largest magnitudes win regardless of sign; the result is ascending.
	v := []float64{0.5, -3, 1, 2.5, -0.25, 3}
	got := TopKIndices(v, 3, nil)
	want := []int{1, 3, 5} // |-3|, |2.5|, |3|
	if len(got) != len(want) {
		t.Fatalf("TopKIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", got, want)
		}
	}
	// Magnitude ties break toward the lower index.
	tie := []float64{1, -1, 1, -1}
	got = TopKIndices(tie, 2, got)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie break: got %v, want [0 1]", got)
	}
	// k clamps to len and 0 selects nothing.
	if got = TopKIndices(tie, 99, got); len(got) != 4 {
		t.Fatalf("k>n: got %d indices, want 4", len(got))
	}
	if got = TopKIndices(tie, 0, got); len(got) != 0 {
		t.Fatalf("k=0: got %d indices, want 0", len(got))
	}
}

// TestTopKRoundTripProperty: decode(encode(x)) under the plain decoder
// yields exactly the k largest-magnitude coordinates (ties toward lower
// index) and zeros elsewhere, for random tensors and random k.
func TestTopKRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var idx []int
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		v := make([]float64, n)
		for i := range v {
			// Duplicated magnitudes exercise the tie-break.
			v[i] = float64(rng.Intn(9)-4) * 0.5
		}
		k := 0
		if n > 0 {
			k = 1 + rng.Intn(n)
		}
		idx = TopKIndices(v, k, idx)
		frame := AppendTensorTopK(AppendGroupHeader(nil, 1), v, idx)
		got, consumed, err := DecodeGroup(frame)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if consumed != len(frame) || len(got) != 1 || len(got[0]) != n {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		// Reference selection: stable sort by (magnitude desc, index asc).
		want := make([]float64, n)
		ref := TopKIndices(v, k, nil)
		kept := make(map[int]bool, k)
		for _, i := range ref {
			want[i] = v[i]
			kept[i] = true
		}
		minKept := math.Inf(1)
		for _, i := range ref {
			if m := math.Abs(v[i]); m < minKept {
				minKept = m
			}
		}
		for i := range want {
			if math.Float64bits(got[0][i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: coord %d = %g, want %g (v=%v idx=%v)",
					trial, i, got[0][i], want[i], v, idx)
			}
			// Every dropped coordinate must be no larger than every kept one.
			if !kept[i] && k > 0 && math.Abs(v[i]) > minKept {
				t.Fatalf("trial %d: dropped coord %d has |%g| > smallest kept %g",
					trial, i, v[i], minKept)
			}
		}
	}
}

// TestTopKGoldenFrame freezes the tag-4 layout.
func TestTopKGoldenFrame(t *testing.T) {
	le := binary.LittleEndian
	u32 := func(v uint32) []byte { b := make([]byte, 4); le.PutUint32(b, v); return b }
	f64 := func(v float64) []byte { b := make([]byte, 8); le.PutUint64(b, math.Float64bits(v)); return b }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	v := []float64{0, -4.5, 0.25, 0, 7}
	idx := TopKIndices(v, 2, nil) // -> {1, 4}
	got := AppendTensorTopK(AppendGroupHeader(nil, 1), v, idx)
	want := cat(
		u32(1),
		[]byte{tagTopK}, u32(5), u32(2),
		u32(1), f64(-4.5),
		u32(4), f64(7),
	)
	if !bytes.Equal(got, want) {
		t.Fatalf("top-k frame drifted from golden bytes:\n got %x\nwant %x", got, want)
	}
	if TopKTensorBytes(5, 2) != int64(len(want))-groupHeaderBytes {
		t.Fatalf("TopKTensorBytes(5,2) = %d, want %d", TopKTensorBytes(5, 2), len(want)-groupHeaderBytes)
	}
}

// TestDecodeGroupDelta: top-k tensors accumulate into the base, dense and
// fp32 tensors replace it, and shape mismatches are errors.
func TestDecodeGroupDelta(t *testing.T) {
	base := [][]float64{
		{1, 2, 3, 4},
		{10, 20},
		{5, 5, 5},
	}
	// AppendGroup writes its own group header; assemble the replace-tagged
	// tensors by slicing one-tensor groups past their headers.
	one := func(m Mode, t []float64) []byte { return AppendGroup(nil, m, [][]float64{t})[groupHeaderBytes:] }
	delta := AppendGroupHeader(nil, 3)
	delta = AppendTensorTopK(delta, []float64{0.5, 0, 0, -1}, []int{0, 3})
	delta = append(delta, one(FP64, []float64{7, 8})...)
	delta = append(delta, one(FP32, []float64{0, 0.5, 0})...)

	consumed, err := DecodeGroupDelta(delta, base)
	if err != nil {
		t.Fatalf("DecodeGroupDelta: %v", err)
	}
	if consumed != len(delta) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(delta))
	}
	wants := [][]float64{{1.5, 2, 3, 3}, {7, 8}, {0, 0.5, 0}}
	for i, want := range wants {
		for j := range want {
			if base[i][j] != want[j] {
				t.Fatalf("tensor %d = %v, want %v", i, base[i], want)
			}
		}
	}

	// Tensor-count mismatch.
	if _, err := DecodeGroupDelta(delta, base[:2]); err == nil {
		t.Fatal("accepted delta with mismatched tensor count")
	}
	// Element-count mismatch.
	bad := AppendGroupHeader(nil, 1)
	bad = AppendTensorTopK(bad, []float64{1, 2, 3}, []int{0})
	if _, err := DecodeGroupDelta(bad, [][]float64{{1, 2}}); err == nil {
		t.Fatal("accepted delta with mismatched element count")
	}
	// Out-of-order indices.
	corrupt := AppendGroupHeader(nil, 1)
	corrupt = append(corrupt, tagTopK)
	corrupt = appendU32(corrupt, 4)
	corrupt = appendU32(corrupt, 2)
	corrupt = appendU32(corrupt, 2)
	corrupt = appendU64(corrupt, math.Float64bits(1))
	corrupt = appendU32(corrupt, 1) // descends
	corrupt = appendU64(corrupt, math.Float64bits(1))
	if _, err := DecodeGroupDelta(corrupt, [][]float64{{0, 0, 0, 0}}); err == nil {
		t.Fatal("accepted out-of-order top-k indices")
	}
	// Truncated body.
	trunc := AppendGroupHeader(nil, 1)
	trunc = AppendTensorTopK(trunc, []float64{1, 2}, []int{0, 1})
	if _, err := DecodeGroupDelta(trunc[:len(trunc)-3], [][]float64{{0, 0}}); err == nil {
		t.Fatal("accepted truncated top-k frame")
	}
}

// TestTopKModeGroupEncodingLossless: AppendGroup under TopK must stay
// lossless (it is the FedAvg-control-body path), matching FP64 byte for
// byte.
func TestTopKModeGroupEncodingLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		g := randGroup(rng)
		fp := AppendGroup(nil, FP64, g)
		tk := AppendGroup(nil, TopK, g)
		if !bytes.Equal(fp, tk) {
			t.Fatalf("trial %d: TopK group encoding differs from FP64", trial)
		}
		if GroupBytes(TopK, g) != int64(len(tk)) {
			t.Fatalf("trial %d: GroupBytes(TopK) = %d, frame is %d", trial, GroupBytes(TopK, g), len(tk))
		}
	}
	if TopK.Lossless() {
		t.Fatal("TopK must report lossy: the transport drops coordinates")
	}
	if m, err := ParseMode("topk"); err != nil || m != TopK {
		t.Fatalf("ParseMode(topk) = %v, %v", m, err)
	}
	if TopK.String() != "topk" || !TopK.Valid() {
		t.Fatalf("TopK stringer/validity wrong: %q %v", TopK, TopK.Valid())
	}
}

func TestTopKSteadyStateAllocs(t *testing.T) {
	v := make([]float64, 256)
	rng := rand.New(rand.NewSource(3))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	idx := TopKIndices(v, 25, nil)
	buf := AppendTensorTopK(AppendGroupHeader(nil, 1), v, idx)
	allocs := testing.AllocsPerRun(50, func() {
		idx = TopKIndices(v, 25, idx)
		buf = AppendTensorTopK(AppendGroupHeader(buf[:0], 1), v, idx)
	})
	if allocs > 0 {
		t.Fatalf("steady-state top-k encode allocated %.1f times per op, want 0", allocs)
	}
}
