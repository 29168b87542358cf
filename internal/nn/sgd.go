package nn

import (
	"fmt"

	"fedrlnas/internal/tensor"
)

// SGD is stochastic gradient descent with momentum, L2 weight decay and
// global-norm gradient clipping — the optimizer configuration from the
// paper's Table I (lr 0.025, momentum 0.9, weight decay 3e-4, clip 5).
type SGD struct {
	LR           float64
	Momentum     float64
	WeightDecay  float64
	GradClip     float64 // <= 0 disables clipping
	velocity     map[*Param]*tensor.Tensor
	clipScratch  []*tensor.Tensor
	lastGradNorm float64
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay, gradClip float64) *SGD {
	return &SGD{
		LR:          lr,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		GradClip:    gradClip,
		velocity:    make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one update to ps using their accumulated gradients.
// Gradients are not cleared; call ZeroGrads between steps.
//
// The update is fused into a single pass per parameter — no gradient clone —
// with the multiplications and additions performed in the same order as the
// textbook g = grad + wd·θ; v = μ·v + g; θ -= lr·v sequence, so the results
// are bit-identical to the unfused form.
func (s *SGD) Step(ps []*Param) {
	if s.GradClip > 0 {
		grads := s.clipScratch[:0]
		for _, p := range ps {
			grads = append(grads, p.Grad)
		}
		s.clipScratch = grads
		s.lastGradNorm = tensor.ClipL2(s.GradClip, grads...)
	}
	for _, p := range ps {
		gd, pd := p.Grad.Data(), p.Value.Data()
		switch {
		case s.Momentum > 0:
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				s.velocity[p] = v
			}
			vd := v.Data()
			if s.WeightDecay > 0 {
				for i, g := range gd {
					vv := s.Momentum*vd[i] + (g + s.WeightDecay*pd[i])
					vd[i] = vv
					pd[i] += -s.LR * vv
				}
			} else {
				for i, g := range gd {
					vv := s.Momentum*vd[i] + g
					vd[i] = vv
					pd[i] += -s.LR * vv
				}
			}
		case s.WeightDecay > 0:
			for i, g := range gd {
				pd[i] += -s.LR * (g + s.WeightDecay*pd[i])
			}
		default:
			for i, g := range gd {
				pd[i] += -s.LR * g
			}
		}
	}
}

// LastGradNorm returns the pre-clip global gradient norm of the last Step.
func (s *SGD) LastGradNorm() float64 { return s.lastGradNorm }

// Velocity returns p's momentum buffer, or nil before the first Step
// touched p. The buffer is live optimizer state; callers must not mutate
// it. Checkpoints persist these buffers because resuming momentum SGD
// from θ alone silently restarts the velocity at zero and diverges from
// the uninterrupted run.
func (s *SGD) Velocity(p *Param) *tensor.Tensor { return s.velocity[p] }

// SetVelocity installs a momentum buffer for p (checkpoint restore). The
// tensor is copied into optimizer-owned storage.
func (s *SGD) SetVelocity(p *Param, v *tensor.Tensor) error {
	if !v.SameShape(p.Value) {
		return fmt.Errorf("nn: velocity shape %v != param shape %v", v.Shape(), p.Value.Shape())
	}
	buf, ok := s.velocity[p]
	if !ok {
		buf = tensor.New(p.Value.Shape()...)
		s.velocity[p] = buf
	}
	buf.CopyFrom(v)
	return nil
}

// Reset clears momentum state in place: every velocity buffer is zeroed, not
// dropped, so an optimizer reset for each local update keeps its storage. A
// zeroed buffer steps bit-identically to the fresh one a first Step would
// allocate — both hold +0 — so Reset then Step equals NewSGD then Step.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
}
