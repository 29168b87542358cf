//go:build fedcheck

package nas

import (
	"testing"

	"fedrlnas/internal/nn"
)

// A fedcheck build refuses a folded forward whose parameters or batch-norm
// statistics changed after the fold, and runs again once SetTraining(false)
// refolds.
func TestStaleFoldPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*FixedModel)
	}{
		{"weight", func(m *FixedModel) { m.Params()[0].Value.Data()[0] += 1 }},
		{"statistics", func(m *FixedModel) {
			bn := m.BatchNorms()[0]
			bn.ApplyStats(nn.BNStats{Mean: make([]float64, bn.C), Var: make([]float64, bn.C)})
		}},
	} {
		m, xs := servedModel(t, 1)
		m.Forward(xs[0])
		c.mutate(m)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s changed in eval mode: the stale folded forward did not panic", c.name)
				}
			}()
			m.Forward(xs[0])
		}()
		m.SetTraining(false)
		m.Forward(xs[0])
	}
}
