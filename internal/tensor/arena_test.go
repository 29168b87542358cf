package tensor

import "testing"

// An arena hands out disjoint storage in call order, ints and floats from the
// same slabs, and after a Reset the same calls get the same storage back.
func TestArenaReusesStorageInCallOrder(t *testing.T) {
	var a Arena
	step := func() (x, y []float64, z []int) { return a.Floats(6), a.Floats(10), a.Ints(3) }
	step()
	a.Reset() // sized now
	x, y, z := step()
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	if x[len(x)-1] != 1 || cap(x) != len(x) {
		t.Fatal("takes within one step overlap")
	}
	a.Reset()
	x3, y3, z3 := step()
	if &x3[0] != &x[0] || &y3[0] != &y[0] || &z3[0] != &z[0] {
		t.Fatal("the step after a Reset did not get the previous step's storage back")
	}
}

// The first step grows the arena slab by slab and the next Reset folds them
// into one with an eighth to spare; a later, larger step appends a slab that
// stays, until a step takes twice the last fold and the Reset after it
// folds again. Either way every step up to the largest so far then
// allocates nothing.
func TestArenaGrowsToHighWaterThenStopsAllocating(t *testing.T) {
	var a Arena
	sizes := []int{3, 100, 7, 50, 1, 400}
	for _, n := range sizes {
		a.Floats(n)
	}
	a.Ints(9)
	if len(a.bufs) < 2 {
		t.Fatalf("the first step fit %d slabs, want growth", len(a.bufs))
	}
	a.Reset()
	if len(a.bufs) != 1 || len(a.bufs[0]) != 570+570/8 {
		t.Fatalf("after Reset: %d slabs, first %d long; want one of %d", len(a.bufs), len(a.bufs[0]), 570+570/8)
	}
	step := func(extra int) func() {
		return func() {
			a.Reset()
			a.Ints(9)
			for i := len(sizes) - 1; i >= 0; i-- { // another order
				a.Floats(sizes[i] + extra)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, step(10)); allocs != 0 {
		t.Fatalf("a step within the slab allocates %.0f objects", allocs)
	}
	step(20)()
	if len(a.bufs) != 2 {
		t.Fatalf("a larger step left %d slabs, want the first plus one", len(a.bufs))
	}
	if allocs := testing.AllocsPerRun(10, step(20)); allocs != 0 {
		t.Fatalf("a step as large as the largest allocates %.0f objects", allocs)
	}
	step(95)() // 1140 words, twice the first step
	a.Reset()
	if len(a.bufs) != 1 || a.Words() != 1140+1140/8 {
		t.Fatalf("after a doubled step: %d slabs, %d words; want one of %d", len(a.bufs), a.Words(), 1140+1140/8)
	}
	if allocs := testing.AllocsPerRun(10, step(95)); allocs != 0 {
		t.Fatalf("a step as large as the refolded one allocates %.0f objects", allocs)
	}
}

// Take rewrites the header it is given, shape included, without allocating.
func TestArenaTakeRewritesHeaderInPlace(t *testing.T) {
	var a Arena
	var h Tensor
	a.Take(&h, 4, 3, 2, 2)
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		if got := a.Take(&h, 2, 5); got != &h || !h.ShapeIs(2, 5) || h.Size() != 10 {
			t.Fatalf("Take(2,5) gave %v", h.Shape())
		}
		a.TakeLike(&h, &h)
	})
	if allocs != 0 {
		t.Fatalf("Take allocates %.0f objects", allocs)
	}
}

// Takes after a Release reuse the released storage, and the fold after the
// step sizes the slab for the step's peak, not for the sum of its takes.
func TestArenaReleaseReusesStorageAndFoldsToPeak(t *testing.T) {
	var a Arena
	a.Floats(10)
	m := a.Mark()
	x := a.Floats(100)
	a.Ints(50)
	a.Release(m)
	y := a.Floats(60)
	if &y[0] != &x[0] {
		t.Fatal("a take after a Release did not reuse the released storage")
	}
	a.Release(a.Mark()) // an empty release is a no-op
	if z := a.Floats(1); &z[0] != &x[60] {
		t.Fatal("an empty Release moved the arena's position")
	}
	a.Reset()
	if peak := 10 + 100 + 50; a.Words() != peak+peak/8 {
		t.Fatalf("after Reset: %d words, want the peak %d plus an eighth", a.Words(), peak)
	}
	step := func() {
		a.Reset()
		a.Floats(10)
		for range 5 {
			m := a.Mark()
			a.Floats(150)
			a.Release(m)
		}
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("a step whose releases keep it within the peak allocates %.0f objects", allocs)
	}
}

// Releasing to a mark past the arena's position is a nesting bug, and
// panics instead of handing out storage twice.
func TestArenaReleasePastPositionPanics(t *testing.T) {
	var a Arena
	m0 := a.Mark()
	a.Floats(4)
	m1 := a.Mark()
	a.Release(m0)
	defer func() {
		if recover() == nil {
			t.Fatal("Release to a mark past the position did not panic")
		}
	}()
	a.Release(m1)
}
