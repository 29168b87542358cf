package baselines

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/data"
)

// The worker-count determinism contract extends to the federated baselines:
// the same seed must yield identical search curves, genotypes, and virtual
// clocks at every worker count, and the pins below hold them to the bit.

func assertCurvesEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] { // bit-identical, no tolerance
			t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// runFedNAS runs the pinned FedNAS configuration: 3 IID participants, 6
// rounds at batch 8.
func runFedNAS(t *testing.T, workers int) NASResult {
	t.Helper()
	ds := testDataset(t)
	part, err := data.IIDPartition(ds.NumTrain(), 3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFedNASConfig(testNet())
	cfg.Rounds = 6
	cfg.BatchSize = 8
	cfg.Workers = workers
	res, err := FedNAS(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runEvo runs the pinned EvoFedNAS configuration. K=5 > Population=4
// exercises the same-candidate-twice-per-round EMA ordering that the merge
// must preserve.
func runEvo(t *testing.T, workers int) NASResult {
	t.Helper()
	ds := testDataset(t)
	part, err := data.IIDPartition(ds.NumTrain(), 5, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEvoConfig(testNet())
	cfg.Rounds = 8
	cfg.BatchSize = 8
	cfg.Population = 4
	cfg.GenerationEvery = 3
	cfg.Workers = workers
	res, err := EvoFedNAS(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameResult(t *testing.T, seq, par NASResult) {
	t.Helper()
	if seq.Genotype.String() != par.Genotype.String() {
		t.Fatalf("genotype diverges: %s vs %s", seq.Genotype, par.Genotype)
	}
	assertCurvesEqual(t, "search curve", seq.Curve.Values(), par.Curve.Values())
	if seq.SearchSeconds != par.SearchSeconds {
		t.Fatalf("search seconds %v vs %v", seq.SearchSeconds, par.SearchSeconds)
	}
	if seq.PayloadBytesPerRound != par.PayloadBytesPerRound {
		t.Fatalf("payload %d vs %d", seq.PayloadBytesPerRound, par.PayloadBytesPerRound)
	}
}

func TestFedNASDeterministicAcrossWorkers(t *testing.T) {
	assertSameResult(t, runFedNAS(t, 1), runFedNAS(t, 4))
}

func TestEvoFedNASDeterministicAcrossWorkers(t *testing.T) {
	assertSameResult(t, runEvo(t, 1), runEvo(t, 4))
}

// resultPin is a NASResult to the bit: the curve's and the search clock's
// float64 bits, the genotype string and the per-round payload.
type resultPin struct {
	curve    []uint64
	genotype string
	seconds  uint64
	payload  int64
}

func assertPinned(t *testing.T, res NASResult, want resultPin) {
	t.Helper()
	vals := res.Curve.Values()
	if len(vals) != len(want.curve) {
		t.Fatalf("curve length %d, pinned %d", len(vals), len(want.curve))
	}
	for i, v := range vals {
		if math.Float64bits(v) != want.curve[i] {
			t.Errorf("curve[%d] = %#x (%v), pinned %#x", i, math.Float64bits(v), v, want.curve[i])
		}
	}
	if got := res.Genotype.String(); got != want.genotype {
		t.Errorf("genotype %s, pinned %s", got, want.genotype)
	}
	if got := math.Float64bits(res.SearchSeconds); got != want.seconds {
		t.Errorf("search seconds %#x (%v), pinned %#x", got, res.SearchSeconds, want.seconds)
	}
	if res.PayloadBytesPerRound != want.payload {
		t.Errorf("payload %d, pinned %d", res.PayloadBytesPerRound, want.payload)
	}
}

func TestFedNASPinned(t *testing.T) {
	want := resultPin{
		curve: []uint64{
			0x3fd8000000000000, 0x3fc5555555555555, 0x3fd5555555555555,
			0x3fc0000000000000, 0x3fd0000000000000, 0x3fcaaaaaaaaaaaaa,
		},
		genotype: "Genotype(normal=[max_pool_3x3 sep_conv_3x3], reduce=[dil_conv_5x5 sep_conv_3x3])",
		seconds:  0x3fef76cb38781692,
		payload:  8720,
	}
	for _, w := range []int{1, 4} {
		assertPinned(t, runFedNAS(t, w), want)
	}
}

func TestEvoFedNASPinned(t *testing.T) {
	want := resultPin{
		curve: []uint64{
			0x3fd4cccccccccccd, 0x3fd199999999999a, 0x3fd0000000000000, 0x3fd0000000000000,
			0x3fd199999999999a, 0x3fc999999999999a, 0x3fc999999999999a, 0x3fcccccccccccccd,
		},
		genotype: "Genotype(normal=[skip_connect dil_conv_3x3], reduce=[skip_connect sep_conv_3x3])",
		seconds:  0x3fda9ea74a8737c2,
		payload:  1896,
	}
	for _, w := range []int{1, 4} {
		assertPinned(t, runEvo(t, w), want)
	}
}
