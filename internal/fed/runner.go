package fed

import (
	"fmt"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/tensor"
)

// batchNormer is implemented by models that can enumerate their batch-norm
// layers in deterministic structural order (nas.FixedModel, SequentialModel).
// The parallel trainers need it to replay replica batch statistics onto the
// primary model in participant order — the one side effect of a local step
// that is not captured by parameter deltas. See DESIGN.md §Concurrency.
type batchNormer interface {
	BatchNorms() []*nn.BatchNorm2D
}

// runner fans a trainer's per-participant work out across a worker pool,
// one model per worker slot. The slots are private replicas when a replica
// factory is given and more than one can be in flight; otherwise the primary
// itself is the only slot. Either way every training forward captures its
// batch statistics for an ordered replay onto the primary, and the merge
// runs in participant order, so the result is bit-identical at every slot
// count (pure arithmetic on restored snapshots).
type runner struct {
	pool    *parallel.Pool
	primary Model
	reps    []Model

	primaryBNs []*nn.BatchNorm2D
	repBNs     [][]*nn.BatchNorm2D

	// values are the primary's parameter values, which evaluate copies onto
	// the replicas; evals and corrects are its per-slot batches and
	// per-batch hit counts, kept across calls.
	values   []*tensor.Tensor
	evals    []EvalBatch
	corrects []float64
}

// newRunner builds the worker slots for a trainer run. newReplica may be nil;
// when set it must produce models structurally identical to primary, and is
// called only when more than one slot can be in flight. maxTasks caps the
// slot count (more could never be in flight). A primary that cannot expose
// its batch-norm layers for the ordered stat replay trains as the only slot,
// its running statistics updated in place in participant order. Call
// release once the run ends.
func newRunner(primary Model, workers, maxTasks int, newReplica func() Model) (*runner, error) {
	r := &runner{primary: primary, pool: parallel.New(workers)}
	pbn, ok := primary.(batchNormer)
	if ok {
		r.primaryBNs = pbn.BatchNorms()
	}
	n := min(r.pool.Workers(), maxTasks)
	if newReplica != nil && ok && n > 1 {
		if err := r.buildReplicas(n, newReplica); err != nil {
			return nil, err
		}
	}
	if len(r.reps) == 0 {
		r.pool = parallel.New(1)
		r.reps, r.repBNs = []Model{primary}, [][]*nn.BatchNorm2D{r.primaryBNs}
		for _, bn := range r.primaryBNs {
			bn.SetStatCapture(true)
		}
	}
	params := primary.Params()
	r.values = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		r.values[i] = p.Value
	}
	r.evals = make([]EvalBatch, len(r.reps))
	return r, nil
}

// buildReplicas fills reps with n replicas in capture mode, or leaves it
// empty when the factory declines one.
func (r *runner) buildReplicas(n int, newReplica func() Model) error {
	primaryParams := r.primary.Params()
	for i := 0; i < n; i++ {
		m := newReplica()
		if m == nil {
			// Factory declined; the primary trains alone.
			r.reps, r.repBNs = nil, nil
			return nil
		}
		mbn, ok := m.(batchNormer)
		if !ok {
			return fmt.Errorf("fed: replica %d cannot enumerate batch norms", i)
		}
		bns := mbn.BatchNorms()
		if len(bns) != len(r.primaryBNs) {
			return fmt.Errorf("fed: replica %d has %d batch norms, primary %d",
				i, len(bns), len(r.primaryBNs))
		}
		if err := checkSameStructure(m.Params(), primaryParams, i); err != nil {
			return err
		}
		m.SetTraining(true)
		for _, bn := range bns {
			bn.SetStatCapture(true)
		}
		r.reps = append(r.reps, m)
		r.repBNs = append(r.repBNs, bns)
	}
	return nil
}

// release takes the primary out of capture mode when it trained as a slot.
func (r *runner) release() {
	if !r.parallelPath() {
		for _, bn := range r.primaryBNs {
			bn.SetStatCapture(false)
		}
	}
}

// checkSameStructure verifies a replica's parameters are index-aligned and
// shape-identical with the primary's, so snapshot restores and delta merges
// are positionally exact.
func checkSameStructure(rep, primary []*nn.Param, i int) error {
	if len(rep) != len(primary) {
		return fmt.Errorf("fed: replica %d has %d params, primary %d", i, len(rep), len(primary))
	}
	for j := range rep {
		rs, ps := rep[j].Value.Shape(), primary[j].Value.Shape()
		if len(rs) != len(ps) {
			return fmt.Errorf("fed: replica %d param %d (%s) shape mismatch", i, j, primary[j].Name)
		}
		for d := range rs {
			if rs[d] != ps[d] {
				return fmt.Errorf("fed: replica %d param %d (%s) shape %v, primary %v",
					i, j, primary[j].Name, rs, ps)
			}
		}
	}
	return nil
}

// parallelPath reports whether per-participant work runs on replicas
// rather than on the primary.
func (r *runner) parallelPath() bool { return r.reps[0] != r.primary }

// drainBN moves the batch statistics worker w's slot captured during a local
// step into recs (see drainStats), for ordered replay via nn.ReplayStats.
func (r *runner) drainBN(w int, recs [][]nn.BNStats) [][]nn.BNStats {
	return drainStats(r.repBNs[w], recs)
}

// evaluate measures test accuracy like Evaluate, with the batches fanned out
// across the slots. Batch results are summed in batch order, so the value is
// bit-identical to Evaluate's.
func (r *runner) evaluate(ds *data.Dataset, batchSize int) (float64, error) {
	n := ds.NumTest()
	if n == 0 {
		return 0, nil
	}
	for w, rep := range r.reps {
		if rep != r.primary {
			if err := nn.RestoreParamValues(rep.Params(), r.values); err != nil {
				return 0, fmt.Errorf("fed: eval replica %d: %w", w, err)
			}
			for i, bn := range r.repBNs[w] {
				bn.CopyStatsFrom(r.primaryBNs[i])
			}
		}
		rep.SetTraining(false)
	}
	nBatches := (n + batchSize - 1) / batchSize
	if cap(r.corrects) < nBatches {
		r.corrects = make([]float64, nBatches)
	}
	corrects := r.corrects[:nBatches]
	err := r.pool.Run(nBatches, func(worker, b int) error {
		start := b * batchSize
		corrects[b] = r.evals[worker].correct(r.reps[worker], ds, start, min(start+batchSize, n))
		return nil
	})
	for _, rep := range r.reps {
		rep.SetTraining(true)
	}
	if err != nil {
		return 0, err
	}
	correct := 0.0
	for _, c := range corrects {
		correct += c
	}
	return correct / float64(n), nil
}
