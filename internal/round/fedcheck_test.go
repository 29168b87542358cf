//go:build fedcheck

package round

import (
	"context"
	"math"
	"testing"

	"fedrlnas/internal/staleness"
)

// Under fedcheck a reply is dead once the next Exchange starts: the core
// poisons its gradients then, so a core that kept reading them — the
// injected bug here, a read of round 0's reply during round 1 — computes NaNs.
func TestReadingReplyAfterNextExchangeSeesPoison(t *testing.T) {
	h := newHarness(t, staleness.DC, map[int][]scripted{
		0: {{from: 0, member: 0}, {from: 0, member: 1}},
	})
	read := 0.0
	h.fake.onExchange = func(t int, _ *Snapshot) {
		if t == 1 {
			read = h.fake.sent[0][1].Grads[0].Data()[0]
		}
	}
	for r := 0; r < 2; r++ {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if !math.IsNaN(read) {
		t.Fatalf("round 1 read round 0's reply gradient as %v, want the poison's NaN", read)
	}
}

// Under fedcheck an evicted snapshot's θ reads as poison until the pool
// refills it, a full round later: the injected bug is a straggler's stale
// read of round 0's θ during round Δ+1, after round Δ evicted it.
func TestReadingEvictedSnapshotSeesPoison(t *testing.T) {
	h := newHarness(t, staleness.DC, nil)
	var first *Snapshot
	read := 0.0
	h.fake.onExchange = func(t int, snap *Snapshot) {
		switch t {
		case 0:
			first = snap
		case delta + 1:
			read = first.Theta[0].Data()[0]
		}
	}
	for r := 0; r <= delta+1; r++ {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if !math.IsNaN(read) {
		t.Fatalf("round %d read evicted round 0's θ as %v, want the poison's NaN", delta+1, read)
	}
	if v := first.Theta[0].Data()[0]; !math.IsNaN(v) {
		t.Fatalf("round 0's θ reads %v after round %d, before its refill; want the poison's NaN", v, delta+1)
	}
}
