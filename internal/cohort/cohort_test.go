package cohort

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0, 5); err == nil {
		t.Fatal("enrolled=0 accepted")
	}
	if _, err := New(1, -3, 5); err == nil {
		t.Fatal("enrolled<0 accepted")
	}
	if _, err := New(1, 10, -1); err == nil {
		t.Fatal("size<0 accepted")
	}
	s, err := New(1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Full() || s.Size() != 10 {
		t.Fatalf("size=0 should select everyone, got size %d full %v", s.Size(), s.Full())
	}
	s, err = New(1, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Full() || s.Size() != 10 {
		t.Fatalf("size>enrolled should clamp to everyone, got %d", s.Size())
	}
}

func TestCohortSortedUniqueInRange(t *testing.T) {
	s, err := New(42, 1000, 17)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		c := s.Cohort(round)
		if len(c) != 17 {
			t.Fatalf("round %d: len %d", round, len(c))
		}
		if !sort.IntsAreSorted(c) {
			t.Fatalf("round %d: not sorted: %v", round, c)
		}
		seen := map[int]bool{}
		for _, id := range c {
			if id < 0 || id >= 1000 {
				t.Fatalf("round %d: id %d out of range", round, id)
			}
			if seen[id] {
				t.Fatalf("round %d: duplicate id %d", round, id)
			}
			seen[id] = true
		}
	}
}

// Same seed → identical schedule, across sampler instances and regardless
// of query order or repetition. This is the determinism half of the PR's
// core invariant.
func TestSameSeedSameSchedule(t *testing.T) {
	a, _ := New(7, 500, 20)
	b, _ := New(7, 500, 20)

	// Query b out of order and repeatedly first, to prove draws are pure
	// functions of the round with no hidden stream state.
	_ = b.Cohort(9)
	_ = b.Cohort(3)
	_ = b.Cohort(3)

	for round := 0; round < 12; round++ {
		ca, cb := a.Cohort(round), b.Cohort(round)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("round %d: %v vs %v", round, ca, cb)
		}
	}
}

func TestDifferentSeedsOrRoundsDiffer(t *testing.T) {
	a, _ := New(1, 10000, 10)
	b, _ := New(2, 10000, 10)
	sameSeed, sameRound := 0, 0
	const rounds = 30
	for round := 0; round < rounds; round++ {
		if reflect.DeepEqual(a.Cohort(round), b.Cohort(round)) {
			sameSeed++
		}
		if round > 0 && reflect.DeepEqual(a.Cohort(round), a.Cohort(round-1)) {
			sameRound++
		}
	}
	// With 10 of 10,000 drawn, any collision is astronomically unlikely.
	if sameSeed > 0 || sameRound > 0 {
		t.Fatalf("schedules collide: %d cross-seed, %d cross-round", sameSeed, sameRound)
	}
}

func TestFullCohortIsIdentity(t *testing.T) {
	s, _ := New(99, 6, 6)
	want := []int{0, 1, 2, 3, 4, 5}
	for round := 0; round < 5; round++ {
		if got := s.Cohort(round); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %v", round, got)
		}
	}
}

func TestAppendCohortReusesBuffer(t *testing.T) {
	s, _ := New(11, 200, 8)
	buf := make([]int, 0, 8)
	first := s.AppendCohort(buf, 4)
	again := s.AppendCohort(first[:0], 4)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("reused-buffer draw differs: %v vs %v", first, again)
	}
	if &first[0] != &again[0] {
		t.Fatal("AppendCohort reallocated despite sufficient capacity")
	}
}

// Partial Fisher–Yates must be uniform: over many rounds every participant
// should appear with frequency ≈ size/enrolled.
func TestSamplingRoughlyUniform(t *testing.T) {
	const (
		enrolled = 50
		size     = 10
		rounds   = 5000
	)
	s, _ := New(123, enrolled, size)
	counts := make([]int, enrolled)
	for round := 0; round < rounds; round++ {
		for _, id := range s.Cohort(round) {
			counts[id]++
		}
	}
	want := float64(rounds) * float64(size) / float64(enrolled)
	for id, c := range counts {
		if ratio := float64(c) / want; ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("participant %d drawn %d times, want ≈%.0f (ratio %.3f)", id, c, want, ratio)
		}
	}
}

func TestPosition(t *testing.T) {
	c := []int{2, 5, 9, 40}
	for i, id := range c {
		pos, ok := Position(c, id)
		if !ok || pos != i {
			t.Fatalf("Position(%d) = %d,%v", id, pos, ok)
		}
	}
	for _, id := range []int{0, 3, 41} {
		if _, ok := Position(c, id); ok {
			t.Fatalf("Position(%d) found non-member", id)
		}
	}
}

func TestContains(t *testing.T) {
	s, _ := New(5, 300, 12)
	c := s.Cohort(7)
	inCohort := map[int]bool{}
	for _, id := range c {
		inCohort[id] = true
	}
	for id := 0; id < 300; id++ {
		if s.Contains(7, id) != inCohort[id] {
			t.Fatalf("Contains(7, %d) = %v, want %v", id, s.Contains(7, id), inCohort[id])
		}
	}
	full, _ := New(5, 4, 4)
	if !full.Contains(0, 3) || full.Contains(0, 4) || full.Contains(0, -1) {
		t.Fatal("full-sampler Contains bounds wrong")
	}
}

func TestFractionSize(t *testing.T) {
	cases := []struct {
		k    int
		frac float64
		want int
	}{
		{10, 0, 10},
		{10, 1, 10},
		{10, -0.5, 10},
		{10, 0.5, 5},
		{10, 0.25, 3}, // round(2.5) = 3 (half away from zero)
		{10, 0.01, 1}, // floor to minimum of one client
		{7, 0.5, 4},   // round(3.5) = 4
		{10, 0.999, 10},
	}
	for _, c := range cases {
		if got := FractionSize(c.k, c.frac); got != c.want {
			t.Fatalf("FractionSize(%d, %g) = %d, want %d", c.k, c.frac, got, c.want)
		}
	}
}

// referenceCohort is round's cohort by a full Fisher–Yates over a fresh
// source seeded for the round: the first size entries, sorted.
func referenceCohort(seed int64, enrolled, size, round int) []int {
	rng := rand.New(rand.NewSource(roundSeed(seed, round)))
	perm := make([]int, enrolled)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < size; i++ {
		j := i + rng.Intn(enrolled-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	want := append([]int(nil), perm[:size]...)
	sort.Ints(want)
	return want
}

// Against a reference full Fisher–Yates using the same per-round stream:
// the sparse partial shuffle must pick exactly the first `size` entries.
func TestMatchesReferenceShuffle(t *testing.T) {
	const (
		enrolled = 97
		size     = 13
		seed     = 77
	)
	s, _ := New(seed, enrolled, size)
	for round := 0; round < 20; round++ {
		want := referenceCohort(seed, enrolled, size, round)
		if got := s.Cohort(round); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sparse %v vs reference %v", round, got, want)
		}
	}
}

// AppendCohort reseeds one stream every round instead of building a source:
// it must draw the cohorts a fresh source draws, in any round order, and a
// steady-state draw allocates nothing (a new source is ~5 KB a round).
func TestReusedStreamMatchesFreshSource(t *testing.T) {
	const (
		enrolled = 200
		size     = 10
		seed     = 5
	)
	s, _ := New(seed, enrolled, size)
	buf := make([]int, 0, size)
	for round := 0; round < 1000; round++ {
		buf = s.AppendCohort(buf[:0], round)
		if want := referenceCohort(seed, enrolled, size, round); !reflect.DeepEqual(buf, want) {
			t.Fatalf("round %d: reused stream %v vs fresh source %v", round, buf, want)
		}
	}
	if got, want := s.AppendCohort(buf[:0], 17), referenceCohort(seed, enrolled, size, 17); !reflect.DeepEqual(got, want) {
		t.Fatalf("round 17 redrawn after round 999: %v vs %v", got, want)
	}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendCohort(buf[:0], round)
		round++
	})
	if allocs != 0 {
		t.Errorf("a steady-state AppendCohort allocates %.1f objects, want 0", allocs)
	}
}

// Cohort may run beside the round loop's AppendCohort (rpcfed's
// /participants handler reads the current cohort while rounds draw), so it
// must not touch the reused stream or swap map; under -race a shared one is
// reported, and without it the two draws can corrupt each other.
func TestCohortBesideAppendCohort(t *testing.T) {
	const (
		enrolled = 200
		size     = 10
		seed     = 3
	)
	s, _ := New(seed, enrolled, size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 300; round++ {
			if got, want := s.Cohort(round), referenceCohort(seed, enrolled, size, round); !reflect.DeepEqual(got, want) {
				t.Errorf("Cohort(%d) = %v, want %v", round, got, want)
				return
			}
		}
	}()
	buf := make([]int, 0, size)
	for round := 0; round < 300; round++ {
		buf = s.AppendCohort(buf[:0], round)
		if want := referenceCohort(seed, enrolled, size, round); !reflect.DeepEqual(buf, want) {
			t.Errorf("AppendCohort(%d) = %v, want %v", round, buf, want)
			break
		}
	}
	<-done
}

func BenchmarkAppendCohort(b *testing.B) {
	s, _ := New(1, 10000, 10)
	buf := make([]int, 0, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = s.AppendCohort(buf[:0], i)
	}
}
