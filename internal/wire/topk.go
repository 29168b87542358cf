package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Top-k gradient sparsification (tag 4). A sender picks the k
// largest-magnitude coordinates of a tensor and ships only those
// index/value pairs; everything it drops must be folded into an
// error-feedback accumulator by the caller, or the dropped mass is lost
// (internal/rpcfed owns that state on both ends of the transport). The
// frames are deltas: DecodeGroupDelta *adds* top-k entries into a base
// tensor, letting the server and participants keep mirrored weights in
// sync with index/value traffic only.

// TopKCount returns the number of entries a ratio-r top-k selection keeps
// out of n elements: ceil(r·n), clamped to [1, n] (0 only when n == 0).
func TopKCount(n int, ratio float64) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// TopKIndices returns the indices of the k largest-magnitude elements of t
// in ascending index order, breaking magnitude ties toward the lower index
// (so the selection is deterministic and platform-independent). idx is
// reused as backing storage when large enough; pass the previous return
// value to make steady-state selection allocation-free. O(n log k) via a
// size-k min-heap of the kept candidates.
func TopKIndices(t []float64, k int, idx []int) []int {
	if k > len(t) {
		k = len(t)
	}
	if k <= 0 {
		return idx[:0]
	}
	if cap(idx) < k {
		idx = make([]int, k)
	} else {
		idx = idx[:k]
	}
	// weaker(a, b): candidate a loses to candidate b — smaller magnitude,
	// or equal magnitude at a higher index. The heap root is the weakest
	// kept candidate, so a scan element replaces it iff the root is weaker.
	weaker := func(a, b int) bool {
		ma, mb := math.Abs(t[a]), math.Abs(t[b])
		if ma != mb {
			return ma < mb
		}
		return a > b
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= k {
				return
			}
			w := l // weakest child
			if r := l + 1; r < k && weaker(idx[r], idx[l]) {
				w = r
			}
			if !weaker(idx[w], idx[i]) {
				return
			}
			idx[i], idx[w] = idx[w], idx[i]
			i = w
		}
	}
	for i := 0; i < k; i++ {
		idx[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for i := k; i < len(t); i++ {
		if weaker(idx[0], i) {
			idx[0] = i
			siftDown(0)
		}
	}
	sort.Ints(idx) // go ≥1.22: slices.Sort, no interface boxing
	return idx
}

// TopKTensorBytes returns the encoded size of one top-k tensor frame with
// k entries (n only sets the header's element count).
func TopKTensorBytes(n, k int) int64 {
	_ = n
	return tensorHeaderBytes + 4 + topKEntryBytes*int64(k)
}

// AppendGroupHeader starts a tensor-group frame assembled tensor by tensor
// (the top-k encoders emit per tensor because each selection updates
// caller-owned error-feedback state between tensors).
func AppendGroupHeader(dst []byte, tensorCount int) []byte {
	return appendU32(dst, uint32(tensorCount))
}

// AppendTensorTopK appends one top-k tensor frame carrying t's values at
// the given ascending indices. The caller is responsible for folding the
// coordinates NOT in idx into its error-feedback accumulator.
func AppendTensorTopK(dst []byte, t []float64, idx []int) []byte {
	dst = append(dst, tagTopK)
	dst = appendU32(dst, uint32(len(t)))
	dst = appendU32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = appendU32(dst, uint32(i))
		dst = appendU64(dst, math.Float64bits(t[i]))
	}
	return dst
}

// DecodeGroupDelta decodes a tensor group on top of base, in place: top-k
// tensors (tag 4) ADD their entries into the matching base tensor, every
// other tag replaces it. Tensor counts and element counts must match base
// exactly — a delta against the wrong shape is a protocol error, not a
// resize. A nil base entry means the receiver has no state for that slot:
// a dense tensor is allocated into it (re-establishing the base), while a
// tag-4 delta is rejected — applying increments to state you do not have
// silently corrupts it, and the error lets the sender fall back to a dense
// resync. Returns the number of bytes consumed.
func DecodeGroupDelta(buf []byte, base [][]float64) (int, error) {
	r := NewReader(buf)
	count, err := r.U32()
	if err != nil {
		return 0, err
	}
	if int(count) != len(base) {
		return 0, fmt.Errorf("wire: delta group has %d tensors, base has %d", count, len(base))
	}
	for i, dst := range base {
		save := r.off
		tag, err := r.U8()
		if err != nil {
			return 0, fmt.Errorf("wire: tensor %d: %w", i, err)
		}
		if dst == nil {
			if tag == tagTopK {
				return 0, fmt.Errorf("wire: tensor %d: top-k delta against missing base", i)
			}
			r.off = save
			t, err := decodeTensorInto(r, nil)
			if err != nil {
				return 0, fmt.Errorf("wire: tensor %d: %w", i, err)
			}
			base[i] = t
			continue
		}
		n32, err := r.U32()
		if err != nil {
			return 0, fmt.Errorf("wire: tensor %d: %w", i, err)
		}
		if int(n32) != len(dst) {
			return 0, fmt.Errorf("wire: tensor %d: delta element count %d != base %d", i, n32, len(dst))
		}
		if tag == tagTopK {
			if err := decodeTopK(r, dst, true); err != nil {
				return 0, fmt.Errorf("wire: tensor %d: %w", i, err)
			}
			continue
		}
		// Replace semantics: rewind and reuse the standard decoder, which
		// fills dst's storage in place (capacities already match).
		r.off = save
		if _, err := decodeTensorInto(r, dst); err != nil {
			return 0, fmt.Errorf("wire: tensor %d: %w", i, err)
		}
	}
	return r.off, nil
}

// decodeTopK reads a tag-4 body (the tag and element count are already
// consumed and validated against dst) and either accumulates its entries
// into dst (add) or stores them bit-exactly.
func decodeTopK(r *Reader, dst []float64, add bool) error {
	k32, err := r.U32()
	if err != nil {
		return err
	}
	k := int(k32)
	if k > len(dst) {
		return fmt.Errorf("top-k count %d exceeds element count %d", k, len(dst))
	}
	if r.Len() < topKEntryBytes*k {
		return fmt.Errorf("truncated top-k body: need %d bytes, have %d", topKEntryBytes*k, r.Len())
	}
	prev := -1
	for e := 0; e < k; e++ {
		b, _ := r.take(topKEntryBytes)
		idx := int(binary.LittleEndian.Uint32(b))
		if idx <= prev || idx >= len(dst) {
			return fmt.Errorf("top-k index %d out of order or out of range [0,%d)", idx, len(dst))
		}
		prev = idx
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
		if add {
			dst[idx] += v
		} else {
			dst[idx] = v
		}
	}
	return nil
}
