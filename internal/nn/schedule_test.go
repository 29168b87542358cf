package nn

import (
	"math"
	"testing"

	"fedrlnas/internal/tensor"
)

func TestConstantLR(t *testing.T) {
	s := ConstantLR{Rate: 0.1}
	if s.LR(0) != 0.1 || s.LR(1000) != 0.1 {
		t.Error("constant schedule must be constant")
	}
}

func TestCosineLRShape(t *testing.T) {
	s, err := NewCosineLR(1.0, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LR(0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("LR(0) = %v, want 1.0", got)
	}
	if got := s.LR(50); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("LR(mid) = %v, want 0.55", got)
	}
	if got := s.LR(100); got != 0.1 {
		t.Errorf("LR(end) = %v, want min", got)
	}
	if got := s.LR(9999); got != 0.1 {
		t.Errorf("LR(past end) = %v, want min", got)
	}
	if got := s.LR(-5); got != 1.0 {
		t.Errorf("LR(negative) = %v, want max", got)
	}
	// Monotone non-increasing over the annealing window.
	prev := s.LR(0)
	for step := 1; step <= 100; step++ {
		cur := s.LR(step)
		if cur > prev+1e-12 {
			t.Fatalf("cosine increased at step %d: %v -> %v", step, prev, cur)
		}
		prev = cur
	}
}

func TestNewCosineLRValidation(t *testing.T) {
	if _, err := NewCosineLR(1, 0, 0); err == nil {
		t.Error("expected error for zero steps")
	}
	if _, err := NewCosineLR(0.1, 0.5, 10); err == nil {
		t.Error("expected error for max < min")
	}
}

func TestStepWithUpdatesRate(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{1}, 1))
	p.Grad.Fill(1)
	opt := NewSGD(999, 0, 0, 0)
	sched := ConstantLR{Rate: 0.5}
	opt.StepWith(sched, 0, []*Param{p})
	if got := p.Value.At(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("StepWith result %v, want 0.5", got)
	}
	if opt.LR != 0.5 {
		t.Errorf("optimizer LR %v not updated by schedule", opt.LR)
	}
}
