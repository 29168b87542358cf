package nn

import (
	"fmt"
	"math"

	"fedrlnas/internal/tensor"
)

// GradCheckResult reports the worst relative error found by CheckGradients.
type GradCheckResult struct {
	MaxRelErr float64
	Where     string
}

// CheckGradients verifies a module's analytic gradients against central
// finite differences of the scalar loss L(out) = sum(out ⊙ seed), where seed
// is a fixed random-like projection. It checks both the input gradient and
// every parameter gradient. eps is the finite-difference step.
//
// Modules with data-dependent branching at the probe point (e.g. max pool
// ties, ReLU at exactly zero) can show spurious error; callers should use
// smooth probe inputs.
func CheckGradients(m Module, x *tensor.Tensor, eps float64) (GradCheckResult, error) {
	seedFor := func(out *tensor.Tensor) *tensor.Tensor {
		s := tensor.New(out.Shape()...)
		d := s.Data()
		for i := range d {
			// Deterministic pseudo-random projection in [-0.5, 0.5).
			d[i] = math.Mod(float64(i)*0.7390851332151607, 1.0) - 0.5
		}
		return s
	}
	loss := func(out *tensor.Tensor, seed *tensor.Tensor) float64 {
		return out.Dot(seed)
	}

	// Analytic pass.
	ZeroGrads(m.Params())
	out := m.Forward(x.Clone())
	seed := seedFor(out)
	gradX := m.Backward(seed.Clone()).Clone() // the probes below re-run Forward

	res := GradCheckResult{}
	update := func(analytic, numeric float64, where string) {
		denom := math.Max(1e-6, math.Abs(analytic)+math.Abs(numeric))
		rel := math.Abs(analytic-numeric) / denom
		if math.Abs(analytic-numeric) < 1e-9 {
			rel = 0
		}
		if rel > res.MaxRelErr {
			res.MaxRelErr = rel
			res.Where = where
		}
	}

	// Numeric input gradient.
	xd := x.Data()
	for i := range xd {
		orig := xd[i]
		xd[i] = orig + eps
		up := loss(m.Forward(x.Clone()), seed)
		xd[i] = orig - eps
		down := loss(m.Forward(x.Clone()), seed)
		xd[i] = orig
		update(gradX.Data()[i], (up-down)/(2*eps), fmt.Sprintf("input[%d]", i))
	}

	// Numeric parameter gradients.
	for _, p := range m.Params() {
		pd := p.Value.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + eps
			up := loss(m.Forward(x.Clone()), seed)
			pd[i] = orig - eps
			down := loss(m.Forward(x.Clone()), seed)
			pd[i] = orig
			update(p.Grad.Data()[i], (up-down)/(2*eps), fmt.Sprintf("%s[%d]", p.Name, i))
		}
	}
	return res, nil
}
