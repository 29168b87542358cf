package rpcfed

import (
	"fmt"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

// Top-k transport (wire.TopK): both directions of the Train RPC ship
// index/value pairs instead of dense tensors, with error feedback so the
// dropped mass is deferred, not lost.
//
// Downlink (weights): the server keeps, per participant, a mirror of every
// supernet parameter it has ever sent that participant. Each dispatch
// encodes the top-k coordinates of (current weights − mirror) as a tag-4
// delta and advances the mirror by exactly the entries it sent; the
// participant applies the same delta to its own mirror copy, so the two
// stay bit-identical without ever exchanging dense tensors again. The
// un-sent weight drift remains in (w − mirror) and rides along in later
// rounds — error feedback with the mirror itself as the accumulator. A
// parameter's first contact (or any contact after a transport failure
// invalidated the mirror) is resynced with a dense-f32 tensor, which both
// ends round identically into their float64 mirrors.
//
// Uplink (gradients): the participant keeps a residual accumulator per
// supernet parameter, sends the top-k coordinates of gradient + residual,
// and keeps the rest as the next round's residual (classic EF-style
// memory). The server decodes the deltas against zeros — the k sent
// coordinates — and aggregates them exactly like a dense (mostly zero)
// gradient.
//
// The transport is lossy by construction, so its tests check that it keeps
// decoding and making progress every round (TestTopKSearchEndToEnd,
// TestTopKSearchProgress), not bit-identity; the fp64 mode keeps its
// bit-identity gate untouched.

// defaultTopKRatio is the downlink (weight-delta) fraction of coordinates
// shipped per tensor when the config leaves TopKRatio zero; the
// participants' weights track the server's θ through these deltas, so the
// fraction is kept an order of magnitude looser than the gradient uplink,
// where error feedback absorbs far sharper sparsification
// (defaultTopKGradRatio).
const (
	defaultTopKRatio     = 0.1
	defaultTopKGradRatio = 0.025
)

// peerMirror is the server's downlink state for one participant: float64
// weight mirrors keyed by supernet parameter index, plus reusable selection
// scratch. Accessed only from the dispatch path and (valid flag only) the
// call-failure path; both are serialized per participant by the in-flight
// bit and the replies channel.
type peerMirror struct {
	valid  bool
	params map[int][]float64
	delta  []float64
	idx    []int
}

// encodeDownlink builds the Packed weight payload for one participant and
// advances its mirrors. sub and subIdx are the sampled parameters and their
// supernet indices.
func (m *peerMirror) encodeDownlink(sub []*nn.Param, subIdx []int, ratio float64) []byte {
	if !m.valid {
		// A transport failure left the participant's state unknown: forget
		// everything and resync dense.
		clear(m.params)
		m.valid = true
	}
	packed := wire.AppendGroupHeader(nil, len(sub))
	for i, p := range sub {
		w := p.Value.Data()
		id := subIdx[i]
		mir := m.params[id]
		if len(mir) != len(w) {
			// First contact for this parameter: dense-f32 resync. Both ends
			// round the same float64s through float32, so the mirrors agree
			// bit for bit.
			mir = make([]float64, len(w))
			for j, v := range w {
				mir[j] = float64(float32(v))
			}
			m.params[id] = mir
			packed = wire.AppendTensor(packed, wire.FP32, w)
			continue
		}
		if cap(m.delta) < len(w) {
			m.delta = make([]float64, len(w))
		}
		d := m.delta[:len(w)]
		for j := range w {
			d[j] = w[j] - mir[j]
		}
		k := wire.TopKCount(len(d), ratio)
		m.idx = wire.TopKIndices(d, k, m.idx)
		packed = wire.AppendTensorTopK(packed, d, m.idx)
		// Advance by the sent entries exactly as the participant will:
		// mirror += delta, NOT mirror = w (the two differ in floating
		// point, and only the former keeps both ends bit-identical).
		for _, j := range m.idx {
			mir[j] += d[j]
		}
	}
	return packed
}

// decodePackedGrads expands a top-k gradient payload against zeros into
// per-parameter tensors shaped like sub.
func decodePackedGrads(packed []byte, sub []*nn.Param) ([]*tensor.Tensor, error) {
	base := make([][]float64, len(sub))
	for i, p := range sub {
		base[i] = make([]float64, p.Value.Size())
	}
	if _, err := wire.DecodeGroupDelta(packed, base); err != nil {
		return nil, fmt.Errorf("rpcfed: decode packed grads: %w", err)
	}
	grads := make([]*tensor.Tensor, len(sub))
	for i, p := range sub {
		grads[i] = tensor.Rebind(nil, base[i], p.Value)
	}
	return grads, nil
}
