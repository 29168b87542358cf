package fed

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

func localTestSetup(t *testing.T) (*data.Dataset, nas.Config, []*tensor.Tensor) {
	t.Helper()
	ds, err := data.Generate(data.Spec{
		Name: "local", NumClasses: 4, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 10, TestPerClass: 2, Noise: 1.0, Confusion: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nas.Config{InChannels: 2, NumClasses: 4, C: 3, Layers: 2, Nodes: 2, Candidates: nas.AllOps}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg, nn.CloneParamValues(net.Params())
}

func stepGates(rng *rand.Rand, cfg nas.Config) nas.Gates {
	n := nas.NumEdges(cfg.Nodes)
	g := nas.Gates{Normal: make([]int, n), Reduce: make([]int, n)}
	for e := 0; e < n; e++ {
		g.Normal[e], g.Reduce[e] = rng.Intn(len(cfg.Candidates)), rng.Intn(len(cfg.Candidates))
	}
	return g
}

// A replica contributes only structure: replicas built from different seeds
// produce bit-identical steps from the same θ and participant stream, however
// many steps each has run before.
func TestReplicaTrainDependsOnlyOnThetaAndStream(t *testing.T) {
	ds, cfg, theta := localTestSetup(t)
	shard := []int{0, 3, 5, 8, 13, 21, 34}
	run := func(seed int64) [][]float64 {
		rep, err := NewReplica(seed, cfg, ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		part, err := NewParticipant(0, shard, 9)
		if err != nil {
			t.Fatal(err)
		}
		var sl Slot
		var out [][]float64
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 5; i++ {
			st := Step{Gates: stepGates(rng, cfg), Theta: theta, BatchSize: 4, Augment: data.DefaultAugment()}
			if err := rep.Train(ds, part, st, &sl); err != nil {
				t.Fatal(err)
			}
			for k, g := range sl.Grads {
				row := append([]float64{float64(sl.SubIdx[k]), sl.Acc, sl.Loss}, g.Data()...)
				out = append(out, row)
			}
		}
		return out
	}
	a, b := run(1), run(99)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d gradient rows", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("row %d entry %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// With a personal head the step swaps it in, keeps its gradients out of the
// slot, and moves it by one plain SGD step; without one, the head's
// gradients are reported like every other parameter's.
func TestReplicaTrainPersonalHead(t *testing.T) {
	ds, cfg, theta := localTestSetup(t)
	rep, err := NewReplica(1, cfg, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	headStart := len(theta) - 2 // the linear head's weight and bias
	g := stepGates(rand.New(rand.NewSource(4)), cfg)
	train := func(head []*tensor.Tensor) *Slot {
		part, err := NewParticipant(0, []int{1, 2, 3, 4, 5}, 6)
		if err != nil {
			t.Fatal(err)
		}
		var sl Slot
		st := Step{Gates: g, Theta: theta, Head: head, HeadLR: 0.5, BatchSize: 4}
		if err := rep.Train(ds, part, st, &sl); err != nil {
			t.Fatal(err)
		}
		return &sl
	}
	shared := train(nil)
	if last := shared.SubIdx[len(shared.SubIdx)-1]; last != len(theta)-1 {
		t.Fatalf("without a head the last gradient is for parameter %d, want the head's %d", last, len(theta)-1)
	}
	headGrads := map[int]*tensor.Tensor{}
	for k, idx := range shared.SubIdx {
		if idx >= headStart {
			headGrads[idx] = shared.Grads[k].Clone()
		}
	}

	// A personal head equal to the shared one trains on the same numbers.
	head := []*tensor.Tensor{theta[headStart].Clone(), theta[headStart+1].Clone()}
	personal := train(head)
	if len(personal.SubIdx) != len(shared.SubIdx)-2 {
		t.Fatalf("personal step reports %d gradients, want %d", len(personal.SubIdx), len(shared.SubIdx)-2)
	}
	for _, idx := range personal.SubIdx {
		if idx >= headStart {
			t.Fatalf("head parameter %d left the device", idx)
		}
	}
	for i, h := range head {
		want := theta[headStart+i].Clone()
		want.AXPY(-0.5, headGrads[headStart+i])
		if !h.AllClose(want, 0) {
			t.Errorf("head tensor %d was not stepped by -lr·grad", i)
		}
	}
}
