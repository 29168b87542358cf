package staleness_test

import (
	"fmt"

	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
)

// Example demonstrates the delay-compensated gradient correction of Eq. 13:
// a straggler's stale gradient is adjusted by λ·g⊙g⊙(θ_fresh − θ_stale) to
// approximate the gradient it would have computed at the fresh weights.
func Example() {
	staleGrad := []*tensor.Tensor{tensor.FromSlice([]float64{1.0, -0.5}, 2)}
	thetaFresh := []*tensor.Tensor{tensor.FromSlice([]float64{0.9, 0.4}, 2)}
	thetaStale := []*tensor.Tensor{tensor.FromSlice([]float64{1.0, 0.2}, 2)}

	compensated, err := staleness.CompensateTheta(staleGrad, thetaFresh, thetaStale, 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.3f %.3f\n", compensated[0].At(0), compensated[0].At(1))
	// Output: 0.900 -0.450
}

// ExampleSchedule shows the paper's severe staleness distribution.
func ExampleSchedule() {
	s := staleness.Severe()
	fmt.Printf("stale fraction: %.0f%%, threshold: %d rounds\n",
		(1-s.Probs[0])*100, s.MaxDelay())
	// Output: stale fraction: 70%, threshold: 2 rounds
}
