package staleness

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

func TestStandardSchedulesValid(t *testing.T) {
	for _, s := range []Schedule{NoStaleness(), Severe(), Slight()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", s.Probs, err)
		}
	}
	if got := 1 - Severe().Probs[0]; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("severe stale fraction %v, want 0.7", got)
	}
	if got := 1 - Slight().Probs[0]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("slight stale fraction %v, want 0.1", got)
	}
	if NoStaleness().Probs[0] != 1 {
		t.Error("no-staleness must be 0% stale")
	}
}

func TestScheduleValidation(t *testing.T) {
	if err := (Schedule{}).Validate(); err == nil {
		t.Error("empty schedule must be invalid")
	}
	if err := (Schedule{Probs: []float64{-0.1, 0.5}}).Validate(); err == nil {
		t.Error("negative probability must be invalid")
	}
	if err := (Schedule{Probs: []float64{0.9, 0.9}}).Validate(); err == nil {
		t.Error("over-unit mass must be invalid")
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	s := Severe()
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, 3)
	drops := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		d, dropped := s.Sample(rng)
		if dropped {
			drops++
			continue
		}
		counts[d]++
	}
	for d, want := range s.Probs {
		got := counts[d] / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("delay %d frequency %.3f, want %.3f", d, got, want)
		}
	}
	if got := drops / n; math.Abs(got-0.1) > 0.01 {
		t.Errorf("drop frequency %.3f, want 0.1", got)
	}
}

func TestPoolPutGetEvict(t *testing.T) {
	p := NewPool[string](2)
	p.Put(0, "a")
	p.Put(1, "b")
	p.Put(2, "c")
	if v, ok := p.Get(0); !ok || v != "a" {
		t.Error("Get(0) failed")
	}
	p.Evict(3) // threshold 2: rounds < 1 evicted
	if _, ok := p.Get(0); ok {
		t.Error("round 0 should be evicted")
	}
	if _, ok := p.Get(1); !ok {
		t.Error("round 1 should survive")
	}
	if p.Len() != 2 {
		t.Errorf("pool len %d, want 2", p.Len())
	}
	rounds := p.Rounds()
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Errorf("rounds %v", rounds)
	}
}

func TestPoolZeroThreshold(t *testing.T) {
	p := NewPool[int](0)
	p.Put(5, 50)
	p.Evict(5)
	if _, ok := p.Get(5); !ok {
		t.Error("current round must survive with zero threshold")
	}
	p.Evict(6)
	if _, ok := p.Get(5); ok {
		t.Error("previous round must be evicted with zero threshold")
	}
}

// A snapshot keeps its address until evicted; the slot it leaves comes back,
// contents and all, for the round threshold+2 later, and OnEvict sees it go.
func TestPoolRecyclesSlots(t *testing.T) {
	p := NewPool[[]int](1)
	var evicted []int
	p.OnEvict = func(s *[]int) { evicted = append(evicted, (*s)[0]) }
	held := map[int]*[]int{}
	for r := 0; r < 6; r++ {
		s := p.Slot(r)
		*s = append((*s)[:0], r)
		held[r] = s
		if r >= 3 && held[r] != held[r-3] {
			t.Errorf("round %d did not reuse round %d's slot", r, r-3)
		}
		if p.At(r) != s {
			t.Errorf("At(%d) does not return the slot just filled", r)
		}
		p.Evict(r + 1)
		if p.At(r-1) != nil || p.Len() != 1 {
			t.Errorf("after round %d: round %d still held, %d retained", r, r-1, p.Len())
		}
	}
	if len(evicted) != 5 || evicted[0] != 0 || evicted[4] != 4 {
		t.Errorf("OnEvict saw %v, want rounds 0..4", evicted)
	}

	live := NewLivePool[int](3)
	live.Put(0, 10)
	live.Put(1, 11)
	if _, ok := live.Get(0); ok || live.Len() != 1 || *live.At(1) != 11 {
		t.Error("a live pool holds only the last round")
	}
}

func TestCompensateThetaFormula(t *testing.T) {
	g := []*tensor.Tensor{tensor.FromSlice([]float64{2, -1}, 2)}
	fresh := []*tensor.Tensor{tensor.FromSlice([]float64{1, 1}, 2)}
	stale := []*tensor.Tensor{tensor.FromSlice([]float64{0, 3}, 2)}
	out, err := CompensateTheta(g, fresh, stale, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// g + λ g² (fresh − stale) = [2 + 0.5·4·1, −1 + 0.5·1·(−2)] = [4, −2]
	if out[0].At(0) != 4 || out[0].At(1) != -2 {
		t.Errorf("compensated = %v", out[0].Data())
	}
	// Inputs untouched.
	if g[0].At(0) != 2 {
		t.Error("compensation mutated the input gradient")
	}
}

func TestCompensateThetaNoDriftIsIdentity(t *testing.T) {
	g := []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3}, 3)}
	same := []*tensor.Tensor{tensor.FromSlice([]float64{5, 5, 5}, 3)}
	out, err := CompensateTheta(g, same, same, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].AllClose(g[0], 0) {
		t.Error("zero drift must leave gradient unchanged")
	}
}

func TestCompensateThetaLambdaZeroIsIdentity(t *testing.T) {
	g := []*tensor.Tensor{tensor.FromSlice([]float64{1, -2}, 2)}
	fresh := []*tensor.Tensor{tensor.FromSlice([]float64{9, 9}, 2)}
	stale := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0}, 2)}
	out, err := CompensateTheta(g, fresh, stale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].AllClose(g[0], 0) {
		t.Error("lambda=0 must be identity")
	}
}

func TestCompensateThetaErrors(t *testing.T) {
	g := []*tensor.Tensor{tensor.New(2)}
	if _, err := CompensateTheta(g, nil, nil, 1); err == nil {
		t.Error("expected length mismatch error")
	}
	bad := []*tensor.Tensor{tensor.New(3)}
	if _, err := CompensateTheta(g, bad, g, 1); err == nil {
		t.Error("expected shape mismatch error")
	}
}

// The in-place form writes exactly what the copying form returns, and a
// shape error anywhere leaves every gradient as it was.
func TestCompensateThetaInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 2), tensor.Randn(rng, 1, 5)}
	fresh := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 2), tensor.Randn(rng, 1, 5)}
	stale := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 2), tensor.Randn(rng, 1, 5)}
	want, err := CompensateTheta(g, fresh, stale, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	before := g[0].Clone()
	if err := CompensateThetaInPlace(g, fresh, []*tensor.Tensor{stale[0], tensor.New(4)}, 0.7); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if !g[0].AllClose(before, 0) {
		t.Fatal("a failed in-place compensation wrote a gradient")
	}
	if err := CompensateThetaInPlace(g, fresh, stale, 0.7); err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if !g[i].AllClose(want[i], 0) {
			t.Errorf("tensor %d: in place %v, copy %v", i, g[i], want[i])
		}
	}
}

// The compensation approximates the fresh gradient: for a quadratic loss
// L(w) = ½w'Hw with diagonal H, the true gradient drift is H·Δw, and the
// DC-ASGD approximation g⊙g⊙Δw should reduce the error versus using the
// stale gradient unchanged (with a reasonable λ).
func TestCompensationReducesApproximationError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 20
	h := make([]float64, dim)
	for i := range h {
		h[i] = 0.5 + rng.Float64() // diagonal Hessian entries
	}
	wStale := tensor.Randn(rng, 1, dim)
	drift := tensor.Randn(rng, 0.1, dim)
	wFresh := wStale.Add(drift)
	gradAt := func(w *tensor.Tensor) *tensor.Tensor {
		g := tensor.New(dim)
		for i := 0; i < dim; i++ {
			g.Data()[i] = h[i] * w.Data()[i]
		}
		return g
	}
	gStale := gradAt(wStale)
	gFresh := gradAt(wFresh)
	comp, err := CompensateTheta(
		[]*tensor.Tensor{gStale}, []*tensor.Tensor{wFresh}, []*tensor.Tensor{wStale}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	errStale := gFresh.Sub(gStale).L2Norm()
	errComp := gFresh.Sub(comp[0]).L2Norm()
	if errComp >= errStale {
		t.Errorf("compensation error %.4f >= stale error %.4f", errComp, errStale)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{Hard, Use, Throw, DC} {
		if str := s.String(); len(str) < 2 || str[:2] == "st" {
			t.Errorf("strategy %d has placeholder string %q", int(s), str)
		}
	}
}
