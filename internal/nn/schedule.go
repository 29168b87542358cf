package nn

import (
	"fmt"
	"math"
)

// LRSchedule maps a step index to a learning rate.
type LRSchedule interface {
	// LR returns the learning rate for step (0-based).
	LR(step int) float64
}

// ConstantLR always returns the same rate.
type ConstantLR struct {
	Rate float64
}

var _ LRSchedule = ConstantLR{}

// LR implements LRSchedule.
func (c ConstantLR) LR(int) float64 { return c.Rate }

// CosineLR anneals from Max to Min over TotalSteps with the half-cosine
// shape DARTS and the paper's P3 training use, then stays at Min.
type CosineLR struct {
	Max, Min   float64
	TotalSteps int
}

var _ LRSchedule = CosineLR{}

// NewCosineLR constructs a cosine annealing schedule.
func NewCosineLR(maxRate, minRate float64, totalSteps int) (CosineLR, error) {
	if totalSteps <= 0 {
		return CosineLR{}, fmt.Errorf("nn: cosine schedule needs positive steps, got %d", totalSteps)
	}
	if maxRate < minRate {
		return CosineLR{}, fmt.Errorf("nn: cosine max %v < min %v", maxRate, minRate)
	}
	return CosineLR{Max: maxRate, Min: minRate, TotalSteps: totalSteps}, nil
}

// LR implements LRSchedule.
func (c CosineLR) LR(step int) float64 {
	if step < 0 {
		step = 0
	}
	if step >= c.TotalSteps {
		return c.Min
	}
	frac := float64(step) / float64(c.TotalSteps)
	return c.Min + 0.5*(c.Max-c.Min)*(1+math.Cos(math.Pi*frac))
}

// StepWith applies sched's rate for the given step and performs the update
// (convenience for optimizer + schedule pairing).
func (s *SGD) StepWith(sched LRSchedule, step int, ps []*Param) {
	s.LR = sched.LR(step)
	s.Step(ps)
}
