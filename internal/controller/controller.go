// Package controller implements the paper's RL search controller: the
// architecture parameter matrix α, the softmax sampling policy (Eq. 4–5),
// the analytic REINFORCE gradient (Eq. 10–12), and the moving-average reward
// baseline (Eq. 8–9).
package controller

import (
	"fmt"
	"math"
	"math/rand"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/tensor"
)

// Config holds the α-optimization hyperparameters (paper Table I).
type Config struct {
	LR            float64 // learning rate (α), default 0.003
	WeightDecay   float64 // weight decay (α), default 0.0001
	GradClip      float64 // gradient clip (α), default 5
	BaselineDecay float64 // β in Eq. 9, default 0.99
	// DisableBaseline turns off the Eq. 8 reward centering (ablation:
	// REINFORCE on raw accuracy).
	DisableBaseline bool
}

// DefaultConfig returns the paper's Table I values for α.
func DefaultConfig() Config {
	return Config{LR: 0.003, WeightDecay: 0.0001, GradClip: 5, BaselineDecay: 0.99}
}

// Controller owns the architecture parameters for the shared normal cell
// and the shared reduction cell.
type Controller struct {
	cfg Config

	alphaNormal [][]float64 // edges × candidates
	alphaReduce [][]float64

	baseline    float64
	baselineSet bool

	// scratch for the sequential server-side sampling paths (SampleGates,
	// LogProb, Entropy); NOT used by the concurrent LogProbGradAt path.
	probsN, probsR [][]float64
}

// New constructs a controller with zero-initialized α (uniform policy).
func New(normalEdges, reduceEdges, numCandidates int, cfg Config) (*Controller, error) {
	if normalEdges <= 0 || reduceEdges <= 0 || numCandidates < 2 {
		return nil, fmt.Errorf("controller: invalid space %dx%d candidates %d",
			normalEdges, reduceEdges, numCandidates)
	}
	return &Controller{
		cfg:         cfg,
		alphaNormal: zeroRows(normalEdges, numCandidates),
		alphaReduce: zeroRows(reduceEdges, numCandidates),
	}, nil
}

// NumCandidates returns the per-edge candidate count.
func (c *Controller) NumCandidates() int { return len(c.alphaNormal[0]) }

// Probs returns the softmax policy per edge (Eq. 4). The returned rows are
// fresh copies.
func (c *Controller) Probs() (normal, reduce [][]float64) {
	return softmaxRows(c.alphaNormal), softmaxRows(c.alphaReduce)
}

// probsScratch computes the policy into the controller's reusable scratch
// rows. Only for the sequential server-side paths; the rows are overwritten
// by the next call.
func (c *Controller) probsScratch() (normal, reduce [][]float64) {
	c.probsN = softmaxRowsInto(c.probsN, c.alphaNormal)
	c.probsR = softmaxRowsInto(c.probsR, c.alphaReduce)
	return c.probsN, c.probsR
}

// SampleGates draws a one-hot architecture from the current policy (Eq. 5).
func (c *Controller) SampleGates(rng *rand.Rand) nas.Gates {
	return c.SampleGatesInto(nas.Gates{}, rng)
}

// SampleGatesInto is SampleGates into g's storage, which it reuses when large
// enough; it draws exactly what SampleGates draws.
func (c *Controller) SampleGatesInto(g nas.Gates, rng *rand.Rand) nas.Gates {
	pn, pr := c.probsScratch()
	return nas.Gates{Normal: sampleRows(g.Normal, rng, pn), Reduce: sampleRows(g.Reduce, rng, pr)}
}

// LogProb returns log p(g): the sum over all edges of the log-probability of
// the sampled candidate.
func (c *Controller) LogProb(g nas.Gates) float64 {
	pn, pr := c.probsScratch()
	lp := 0.0
	for e, k := range g.Normal {
		lp += math.Log(pn[e][k])
	}
	for e, k := range g.Reduce {
		lp += math.Log(pr[e][k])
	}
	return lp
}

// LogProbGrad returns ∇α log p(g) analytically (Eq. 12): for the edge where
// candidate i was sampled, the gradient row is (−p₁, …, 1−p_i, …, −p_N).
// (The paper's Eq. 11 prints δ with the cases swapped; δ_ii = 1 is the
// standard Kronecker delta REINFORCE requires, which Eq. 12 also uses.)
func (c *Controller) LogProbGrad(g nas.Gates) AlphaGrad {
	// Read-only view of α; LogProbGradAt writes the softmax straight into
	// the gradient rows, skipping the intermediate probability matrices.
	return LogProbGradAt(AlphaSnapshot{Normal: c.alphaNormal, Reduce: c.alphaReduce}, g)
}

// Reward converts a raw training accuracy into a baselined reward (Eq. 8)
// without updating the baseline. With DisableBaseline set, the raw accuracy
// is returned (the ablation of DESIGN.md §5).
func (c *Controller) Reward(acc float64) float64 {
	if c.cfg.DisableBaseline {
		return acc
	}
	if !c.baselineSet {
		return 0
	}
	return acc - c.baseline
}

// UpdateBaseline folds the round's mean accuracy into the moving-average
// baseline (Eq. 9) and returns the new baseline.
func (c *Controller) UpdateBaseline(meanAcc float64) float64 {
	if !c.baselineSet {
		c.baseline = meanAcc
		c.baselineSet = true
		return c.baseline
	}
	b := c.cfg.BaselineDecay
	c.baseline = b*meanAcc + (1-b)*c.baseline
	return c.baseline
}

// Baseline returns the current moving-average baseline.
func (c *Controller) Baseline() float64 { return c.baseline }

// Apply performs one gradient-ascent step on J(α) with weight decay and
// gradient clipping, mirroring the θ optimizer's safeguards.
func (c *Controller) Apply(grad AlphaGrad) {
	clipRows(c.cfg.GradClip, grad.Normal, grad.Reduce)
	step := func(alpha, g [][]float64) {
		for e := range alpha {
			for j := range alpha[e] {
				alpha[e][j] += c.cfg.LR * (g[e][j] - c.cfg.WeightDecay*alpha[e][j])
			}
		}
	}
	step(c.alphaNormal, grad.Normal)
	step(c.alphaReduce, grad.Reduce)
}

// Entropy returns the mean per-edge policy entropy in nats — a convergence
// diagnostic: it starts at ln(N) and shrinks as the policy commits.
func (c *Controller) Entropy() float64 {
	pn, pr := c.probsScratch()
	total, edges := 0.0, 0
	for _, rows := range [][][]float64{pn, pr} {
		for _, row := range rows {
			for _, p := range row {
				if p > 0 {
					total -= p * math.Log(p)
				}
			}
			edges++
		}
	}
	return total / float64(edges)
}

// View returns a zero-copy read-only view of the current α matrices. Unlike
// Snapshot, the rows alias the live state: callers may only read them, and
// the next Apply/Restore changes them in place. Intended for round engines
// that never consult stale snapshots and want to skip the deep copy.
func (c *Controller) View() AlphaSnapshot {
	return AlphaSnapshot{Normal: c.alphaNormal, Reduce: c.alphaReduce}
}

// Snapshot deep-copies the current α matrices.
func (c *Controller) Snapshot() AlphaSnapshot {
	return c.SnapshotInto(AlphaSnapshot{})
}

// SnapshotInto is Snapshot into dst's rows, reused when their shape matches.
func (c *Controller) SnapshotInto(dst AlphaSnapshot) AlphaSnapshot {
	dst.Normal = copyRowsInto(dst.Normal, c.alphaNormal)
	dst.Reduce = copyRowsInto(dst.Reduce, c.alphaReduce)
	return dst
}

// Restore overwrites α with a snapshot.
func (c *Controller) Restore(s AlphaSnapshot) error {
	if len(s.Normal) != len(c.alphaNormal) || len(s.Reduce) != len(c.alphaReduce) {
		return fmt.Errorf("controller: snapshot shape mismatch")
	}
	c.alphaNormal = copyRows(s.Normal)
	c.alphaReduce = copyRows(s.Reduce)
	return nil
}

// Derive returns the argmax genotype under the current policy.
func (c *Controller) Derive(candidates []nas.OpKind, nodes int) nas.Genotype {
	pn, pr := c.Probs()
	return nas.DeriveGenotype(pn, pr, candidates, nodes)
}

// AlphaSnapshot is a deep copy of the α matrices at some round.
type AlphaSnapshot struct {
	Normal [][]float64
	Reduce [][]float64
}

// Diff returns (other − s) elementwise, the Δα the delay-compensation
// correction needs (Eq. 15's α_{t+τ} − α_t).
func (s AlphaSnapshot) Diff(other AlphaSnapshot) AlphaGrad {
	var d AlphaGrad
	s.DiffInto(&d, other)
	return d
}

// DiffInto is Diff into dst's rows, reused when their shape matches.
func (s AlphaSnapshot) DiffInto(dst *AlphaGrad, other AlphaSnapshot) {
	dst.Normal = copyRowsInto(dst.Normal, other.Normal)
	dst.Reduce = copyRowsInto(dst.Reduce, other.Reduce)
	subRows(dst.Normal, s.Normal)
	subRows(dst.Reduce, s.Reduce)
}

// LogProbGradAt evaluates ∇α log p(g) at an arbitrary α snapshot (Eq. 12
// applied to stale α, needed by the delay-compensation path of Alg. 1
// line 28 where the straggler's gates were sampled from a past policy).
func LogProbGradAt(s AlphaSnapshot, g nas.Gates) AlphaGrad {
	var grad AlphaGrad
	LogProbGradAtInto(&grad, s, g)
	return grad
}

// LogProbGradAtInto is LogProbGradAt into a caller-owned gradient, reusing
// dst's rows when the shapes already match. Every row is fully overwritten
// (gates carry one sampled candidate per edge), so no zeroing is needed.
func LogProbGradAtInto(dst *AlphaGrad, s AlphaSnapshot, g nas.Gates) {
	dst.Normal = shapedRows(dst.Normal, len(s.Normal), len(s.Normal[0]))
	dst.Reduce = shapedRows(dst.Reduce, len(s.Reduce), len(s.Reduce[0]))
	// Softmax straight into the gradient row, then negate and add the
	// Kronecker one: no per-edge probability temporaries. This function is
	// called concurrently by round-engine workers, so all written state is
	// confined to dst.
	fill := func(rows, alpha [][]float64, gates []int) {
		for e, k := range gates {
			row := rows[e]
			tensor.SoftmaxInto(row, alpha[e])
			for j := range row {
				row[j] = -row[j]
			}
			row[k] += 1
		}
	}
	fill(dst.Normal, s.Normal, g.Normal)
	fill(dst.Reduce, s.Reduce, g.Reduce)
}

// shapedRows returns a rows×cols matrix, reusing the given storage when its
// shape already matches. Contents are unspecified; callers must overwrite.
func shapedRows(rows [][]float64, n, cols int) [][]float64 {
	if len(rows) != n {
		rows = make([][]float64, n)
	}
	for i := range rows {
		if len(rows[i]) != cols {
			rows[i] = make([]float64, cols)
		}
	}
	return rows
}

// ChainSoftmax converts per-edge dL/dp rows into dL/dα rows through the
// softmax Jacobian: dL/dα_j = Σ_i dL/dp_i · p_i (δ_ij − p_j). Used by the
// gradient-based baselines (DARTS, FedNAS) that differentiate the mixture.
func ChainSoftmax(dProbs, probs [][]float64) [][]float64 {
	out := make([][]float64, len(dProbs))
	for e := range dProbs {
		row := make([]float64, len(dProbs[e]))
		dot := 0.0
		for i := range dProbs[e] {
			dot += dProbs[e][i] * probs[e][i]
		}
		for j := range row {
			row[j] = probs[e][j] * (dProbs[e][j] - dot)
		}
		out[e] = row
	}
	return out
}

// SoftmaxRows exposes row-wise softmax for external α matrices (baselines
// keep their own α when they do not use the RL controller).
func SoftmaxRows(alpha [][]float64) [][]float64 { return softmaxRows(alpha) }

func softmaxRows(alpha [][]float64) [][]float64 {
	out := make([][]float64, len(alpha))
	for i, row := range alpha {
		out[i] = tensor.Softmax(row)
	}
	return out
}

// softmaxRowsInto is softmaxRows into reusable row storage, allocating only
// when the shape grows or changes.
func softmaxRowsInto(dst [][]float64, alpha [][]float64) [][]float64 {
	if len(dst) != len(alpha) {
		dst = make([][]float64, len(alpha))
	}
	for i, row := range alpha {
		if len(dst[i]) != len(row) {
			dst[i] = make([]float64, len(row))
		}
		tensor.SoftmaxInto(dst[i], row)
	}
	return dst
}

// sampleRows draws one candidate per row into out's storage.
func sampleRows(out []int, rng *rand.Rand, probs [][]float64) []int {
	if cap(out) < len(probs) {
		out = make([]int, len(probs))
	}
	out = out[:len(probs)]
	for e, row := range probs {
		r := rng.Float64()
		acc := 0.0
		k := len(row) - 1
		for j, p := range row {
			acc += p
			if r < acc {
				k = j
				break
			}
		}
		out[e] = k
	}
	return out
}

func zeroRows(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

func copyRows(src [][]float64) [][]float64 { return copyRowsInto(nil, src) }

// copyRowsInto copies src into dst's rows, reusing their storage.
func copyRowsInto(dst, src [][]float64) [][]float64 {
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for i := range src {
		dst[i] = append(dst[i][:0], src[i]...)
	}
	return dst
}

func subRows(dst, src [][]float64) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] -= src[i][j]
		}
	}
}

// clipRows measures the joint L2 norm of the row groups and, when maxNorm
// is positive, rescales them in place so the norm does not exceed it.
func clipRows(maxNorm float64, rowGroups ...[][]float64) float64 {
	s := 0.0
	for _, rows := range rowGroups {
		for _, row := range rows {
			for _, v := range row {
				s += v * v
			}
		}
	}
	norm := math.Sqrt(s)
	if norm > maxNorm && norm > 0 {
		c := maxNorm / norm
		for _, rows := range rowGroups {
			for _, row := range rows {
				for j := range row {
					row[j] *= c
				}
			}
		}
	}
	return norm
}
