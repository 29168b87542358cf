package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, m := range []Mode{Gob, FP64, FP32} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
		if !m.Valid() {
			t.Fatalf("%v.Valid() = false", m)
		}
	}
	// Unknown names, the retired sparse and top-k modes, and the retired
	// "binary" alias of fp64 are all rejected.
	for _, name := range []string{"zstd", "sparse", "topk", "binary"} {
		if m, err := ParseMode(name); err == nil {
			t.Fatalf("ParseMode(%q) = %v, want an error", name, m)
		}
	}
	for _, m := range []Mode{retiredSparse, retiredTopK, Mode(9)} {
		if m.Valid() {
			t.Fatalf("%v.Valid() = true", m)
		}
	}
}

// randGroup builds a tensor group with the structure the RPC path ships:
// a mix of dense, mostly-zero, and all-zero tensors, including empty ones
// and awkward values (±0, subnormals, NaN, ±Inf).
func randGroup(rng *rand.Rand) [][]float64 {
	g := make([][]float64, rng.Intn(6))
	for i := range g {
		n := rng.Intn(40)
		tv := make([]float64, n)
		density := rng.Float64()
		for j := range tv {
			if rng.Float64() >= density {
				continue
			}
			switch rng.Intn(8) {
			case 0:
				tv[j] = math.Copysign(0, -1)
			case 1:
				tv[j] = math.NaN()
			case 2:
				tv[j] = math.Inf(1 - 2*rng.Intn(2))
			case 3:
				tv[j] = 5e-324 // smallest subnormal
			default:
				tv[j] = rng.NormFloat64()
			}
		}
		g[i] = tv
	}
	return g
}

// equalBits compares groups by float64 bit pattern, so NaN == NaN and
// -0 != +0 — the lossless modes must preserve exact bits.
func equalBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestGroupRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []Mode{FP64, Gob} { // Gob callers get fp64 frames
		for trial := 0; trial < 200; trial++ {
			g := randGroup(rng)
			buf := AppendGroup(nil, m, g)
			if int64(len(buf)) != GroupBytes(m, g) {
				t.Fatalf("%v: GroupBytes = %d, encoded %d bytes", m, GroupBytes(m, g), len(buf))
			}
			dec, n, err := DecodeGroup(buf)
			if err != nil {
				t.Fatalf("%v: decode: %v", m, err)
			}
			if n != len(buf) {
				t.Fatalf("%v: consumed %d of %d bytes", m, n, len(buf))
			}
			if !equalBits(g, dec) {
				t.Fatalf("%v: round trip altered bits", m)
			}
		}
	}
}

func TestGroupRoundTripFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		g := randGroup(rng)
		buf := AppendGroup(nil, FP32, g)
		if int64(len(buf)) != GroupBytes(FP32, g) {
			t.Fatalf("GroupBytes = %d, encoded %d bytes", GroupBytes(FP32, g), len(buf))
		}
		dec, _, err := DecodeGroup(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(g) {
			t.Fatalf("group length %d, want %d", len(dec), len(g))
		}
		for i := range g {
			for j, v := range g[i] {
				want := float64(float32(v))
				got := dec[i][j]
				if math.IsNaN(want) && math.IsNaN(got) {
					continue
				}
				if want != got && math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("tensor %d[%d]: got %v, want float32-rounded %v of %v", i, j, got, want, v)
				}
			}
		}
	}
}

func TestDecodeGroupIntoReusesBuffers(t *testing.T) {
	g := [][]float64{{1, 2, 3}, {}, {0, 0, 4}}
	buf := AppendGroup(nil, FP64, g)
	into := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
	p0 := &into[0][0]
	dec, err := DecodeGroupInto(NewReader(buf), into)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBits(g, dec) {
		t.Fatal("decoded values wrong")
	}
	if &dec[0][0] != p0 {
		t.Fatal("DecodeGroupInto did not reuse the provided backing array")
	}
	if testing.AllocsPerRun(50, func() {
		dec, err = DecodeGroupInto(NewReader(buf), dec)
		if err != nil {
			t.Fatal(err)
		}
	}) > 0 {
		t.Fatal("steady-state DecodeGroupInto allocates")
	}
	scratch := buf[:0]
	if testing.AllocsPerRun(50, func() {
		scratch = AppendGroup(scratch[:0], FP64, g)
	}) > 0 {
		t.Fatal("steady-state AppendGroup allocates")
	}
}

// TestGoldenFrame freezes the frame format: any change to tags, header
// widths, or endianness must show up here as a deliberate golden update.
func TestGoldenFrame(t *testing.T) {
	group := [][]float64{
		{1.5, -2.0},
		{0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3.25},
	}
	le := binary.LittleEndian
	u32 := func(v uint32) []byte { b := make([]byte, 4); le.PutUint32(b, v); return b }
	f64 := func(v float64) []byte { b := make([]byte, 8); le.PutUint64(b, math.Float64bits(v)); return b }
	f32 := func(v float32) []byte { b := make([]byte, 4); le.PutUint32(b, math.Float32bits(v)); return b }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	golden := map[Mode][]byte{
		FP64: cat(
			u32(3),
			[]byte{tagDenseF64}, u32(2), f64(1.5), f64(-2.0),
			[]byte{tagDenseF64}, u32(4), f64(0), f64(0), f64(0), f64(0),
			[]byte{tagDenseF64}, u32(13), f64(0), f64(0), f64(0), f64(0), f64(0), f64(0),
			f64(0), f64(0), f64(0), f64(0), f64(0), f64(0), f64(3.25),
		),
		FP32: cat(
			u32(3),
			[]byte{tagDenseF32}, u32(2), f32(1.5), f32(-2.0),
			[]byte{tagDenseF32}, u32(4), f32(0), f32(0), f32(0), f32(0),
			[]byte{tagDenseF32}, u32(13), f32(0), f32(0), f32(0), f32(0), f32(0), f32(0),
			f32(0), f32(0), f32(0), f32(0), f32(0), f32(0), f32(3.25),
		),
	}
	for m, want := range golden {
		got := AppendGroup(nil, m, group)
		if !bytes.Equal(got, want) {
			t.Errorf("%v frame drifted from golden bytes:\n got %x\nwant %x", m, got, want)
		}
	}
}

// TestRetiredTagsRejected: tags 2 (all-zero) and 3 (index/value pairs)
// belonged to the removed lossless sparse mode and tag 4 to the removed
// top-k mode. Nothing produces them any more, and a decoder must reject one
// as an unknown tag rather than guess at its body — before allocating for
// its element count, so a 13-byte frame claiming MaxElems elements cannot
// make the decoder allocate 512 MB.
func TestRetiredTagsRejected(t *testing.T) {
	maxElems := binary.LittleEndian.AppendUint32(nil, MaxElems)
	huge := func(tag byte) []byte { // 13 bytes: header, tag, MaxElems, a zero u32
		return cat2([]byte{1, 0, 0, 0, tag}, maxElems, []byte{0, 0, 0, 0})
	}
	for _, c := range []struct {
		tag   byte
		frame []byte
	}{
		{2, []byte{1, 0, 0, 0, 2, 2, 0, 0, 0}},
		{3, []byte{1, 0, 0, 0, 3, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{4, []byte{1, 0, 0, 0, 4, 8, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{2, huge(2)},
		{4, huge(4)},
	} {
		want := fmt.Sprintf("unknown tensor tag %d", c.tag)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeGroup(c.frame)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("tag-%d frame % x decoded with err = %v, want %q", c.tag, c.frame, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("rejecting tag-%d frame % x allocated %d bytes", c.tag, c.frame, got)
		}
	}
}

func TestDenseGroupBytes(t *testing.T) {
	counts := []int{2, 0, 13}
	group := [][]float64{{1, 2}, {}, make([]float64, 13)}
	for _, m := range []Mode{Gob, FP64, FP32} {
		want := DenseGroupBytes(m, counts)
		enc := m
		if enc == Gob {
			enc = FP64 // Gob sizes as FP64; encoder never emits gob frames
		}
		got := int64(len(AppendGroup(nil, enc, group)))
		if got != want {
			t.Fatalf("%v: DenseGroupBytes = %d, encoded %d", m, want, got)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good := AppendGroup(nil, FP64, [][]float64{{0, 0, 7, 0, 0, 0, 0, 0, 0, 0}, {1, 2}})
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:2],
		"truncated body": good[:len(good)-3],
		"bad tag":        append(append([]byte{}, good[:4]...), 99, 1, 0, 0, 0),
		"huge count":     {0xff, 0xff, 0xff, 0xff},
		"huge elems":     {1, 0, 0, 0, tagDenseF64, 0xff, 0xff, 0xff, 0x7f},
		"short f32 body": {1, 0, 0, 0, tagDenseF32, 2, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, frame := range cases {
		if _, _, err := DecodeGroup(frame); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}
	if _, _, err := DecodeGroup(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}

func cat2(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestReaderPrimitives(t *testing.T) {
	buf := AppendGroup(nil, FP64, nil)
	buf = appendU64(buf, 0x0102030405060708)
	r := NewReader(buf)
	if _, err := DecodeGroupInto(r, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after full read", r.Len())
	}
	if _, err := r.U8(); err == nil {
		t.Fatal("U8 past end succeeded")
	}
	if _, err := r.U32(); err == nil {
		t.Fatal("U32 past end succeeded")
	}
	if _, err := r.F64(); err == nil {
		t.Fatal("F64 past end succeeded")
	}
}
