package nn

// Batch-norm statistic capture/replay. BatchNorm2D's training forward has a
// side effect — the EMA update of the running statistics — that makes it the
// one piece of per-participant work that is not naturally order-independent.
// The parallel round engine therefore runs worker replicas in *capture* mode:
// a capturing BatchNorm2D records the batch statistics of every training
// forward instead of folding them into its running stats, and the round loop
// replays the captured statistics onto the primary model's layers in fixed
// participant-index order. Because the batch statistics themselves depend
// only on the input batch and the (restored) parameters — never on the
// running stats — replaying them through ApplyStats reproduces bit-identical
// running statistics to a fully sequential run. See DESIGN.md §Concurrency.

// BNStats is one training forward's batch statistics: per-channel mean and
// (biased) variance.
type BNStats struct {
	Mean []float64
	Var  []float64
}

// SetStatCapture toggles capture mode. While capturing, training forwards
// append their batch statistics to an internal log (read with
// DrainCapturedStats) and leave the running statistics untouched.
func (bn *BatchNorm2D) SetStatCapture(on bool) {
	bn.capture = on
	if !on {
		bn.captured = nil
		bn.statsFree = nil
	}
}

// DrainCapturedStats returns the batch statistics captured since the last
// drain, oldest first, and clears the log. The caller owns the returned
// records.
func (bn *BatchNorm2D) DrainCapturedStats() []BNStats {
	s := bn.captured
	bn.captured = nil
	return s
}

// DrainCapturedStatsInto is the no-alloc drain: it copies the captured
// records into dst[:0] (growing it only when needed), clears the log while
// keeping its backing array for future captures, and returns dst. The caller
// owns the records until it hands them back via RecycleStats.
func (bn *BatchNorm2D) DrainCapturedStatsInto(dst []BNStats) []BNStats {
	dst = append(dst[:0], bn.captured...)
	bn.captured = bn.captured[:0]
	return dst
}

// RecycleStats returns consumed capture records to the layer's freelist so
// later capturing forwards reuse their Mean/Var storage instead of
// allocating. Records with a mismatched channel count are ignored.
func (bn *BatchNorm2D) RecycleStats(recs []BNStats) {
	for _, r := range recs {
		if len(r.Mean) == bn.C && len(r.Var) == bn.C {
			bn.statsFree = append(bn.statsFree, r)
		}
	}
}

// ApplyStats folds one captured forward's batch statistics into the running
// statistics, exactly as a non-capturing training forward would have.
func (bn *BatchNorm2D) ApplyStats(s BNStats) {
	for ch := 0; ch < bn.C; ch++ {
		bn.runningMean[ch] = (1-bn.Momentum)*bn.runningMean[ch] + bn.Momentum*s.Mean[ch]
		bn.runningVar[ch] = (1-bn.Momentum)*bn.runningVar[ch] + bn.Momentum*s.Var[ch]
	}
}

// ReplayStats folds one participant's captured statistics — stats[layer]
// holds the records layer bns[layer] captured, oldest first — into bns'
// running statistics, layer by layer, exactly as its non-capturing local
// step would have.
func ReplayStats(bns []*BatchNorm2D, stats [][]BNStats) {
	for layer, recs := range stats {
		for _, rec := range recs {
			bns[layer].ApplyStats(rec)
		}
	}
}

// CopyStatsFrom overwrites bn's running statistics with src's (used to sync
// evaluation replicas with the primary model; parameters are copied
// separately via RestoreParamValues).
func (bn *BatchNorm2D) CopyStatsFrom(src *BatchNorm2D) {
	copy(bn.runningMean, src.runningMean)
	copy(bn.runningVar, src.runningVar)
}

// StatsHash fingerprints the running statistics of bns to the bit, as
// ParamHash does parameter values: each layer's means, then its variances.
func StatsHash(bns []*BatchNorm2D) uint64 {
	h := uint64(fnvOffset)
	for _, bn := range bns {
		h = hashFloats(hashFloats(h, bn.runningMean), bn.runningVar)
	}
	return h
}

// Container is implemented by modules that contain other modules, so
// generic walkers can enumerate a module tree without knowing its concrete
// layout. Children returns the direct children in deterministic order.
type Container interface {
	Children() []Module
}

// CollectBatchNorms walks the module trees rooted at ms in order and
// returns every BatchNorm2D encountered. Two structurally identical models
// yield index-aligned lists, which is what lets the round engine pair each
// replica layer with its primary counterpart.
func CollectBatchNorms(ms ...Module) []*BatchNorm2D {
	var out []*BatchNorm2D
	for _, m := range ms {
		switch v := m.(type) {
		case *BatchNorm2D:
			out = append(out, v)
		case Container:
			out = append(out, CollectBatchNorms(v.Children()...)...)
		}
	}
	return out
}
