// Package wire is the compact binary tensor codec under the federated RPC
// transport (the paper's communication path, Sec. IV "Adaptive
// transmission"). It replaces per-element gob reflection with hand-rolled
// little-endian frames and gives the transport three payload modes:
//
//	FP64 — dense float64, bit-exact (the default; results are identical
//	       to the gob baseline down to the last bit)
//	FP32 — dense float32, half the bytes, lossy (documented drift)
//	TopK — top-k magnitude gradient sparsification with error feedback
//	       (lossy by design; the residual rides accumulators on both ends
//	       of the RPC transport, see internal/rpcfed). Only the explicit
//	       AppendTensorTopK/DecodeGroupDelta APIs produce and consume the
//	       lossy frames; AppendGroup under TopK stays lossless (dense f64).
//
// The package is a leaf (stdlib only): internal/rpcfed builds its net/rpc
// codecs on top of it, and internal/transmission call sites use its sizing
// helpers to rank sub-models by measured encoded bytes.
//
// # Tensor group frame
//
// A "group" is an ordered list of tensors ([][]float64 on the Go side),
// the Weights/Grads payload of one request or reply. All integers are
// little-endian, all lengths are explicit, and decoding is bounds-checked
// end to end: a malformed frame yields an error, never a panic and never
// an out-of-range allocation.
//
//	u32 tensorCount
//	per tensor:
//	  u8  tag         (0 dense f64 | 1 dense f32 | 4 top-k delta; tags 2
//	                   and 3 belonged to a removed sparse mode and decode
//	                   as unknown tags)
//	  u32 elemCount
//	  tag 0: elemCount × u64   (math.Float64bits)
//	  tag 1: elemCount × u32   (math.Float32bits)
//	  tag 4: u32 k, then k × (u32 index, u64 bits); indices strictly
//	         ascending and < elemCount. DecodeGroupDelta adds the entries
//	         into a base tensor (error-feedback gradient deltas, see
//	         topk.go); the plain decoders read zeros elsewhere.
//
// Tags are per tensor, so a decoder never needs to know the sender's mode;
// the mode only chooses which tags the encoder emits.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mode selects how the sender encodes tensor payloads.
type Mode uint8

// Wire modes. Gob is the net/rpc reflection baseline (no binary framing;
// this package never encodes it) kept for benchmarking; the rest select
// the tags AppendGroup emits.
const (
	Gob Mode = iota
	FP64
	FP32
	// retiredSparse is the value of a removed lossless sparse mode. It
	// stays reserved so TopK keeps its number on the wire and in configs.
	retiredSparse
	// TopK is the gradient-sparsification transport mode (top-k magnitude
	// selection with server/participant error feedback, see
	// internal/rpcfed). The lossy encoding is only produced by the explicit
	// AppendTensorTopK API; AppendGroup under TopK emits dense f64, so paths
	// that must stay exact (FedAvg control bodies) stay exact even when the
	// transport mode is TopK.
	TopK
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Gob:
		return "gob"
	case FP64:
		return "fp64"
	case FP32:
		return "fp32"
	case TopK:
		return "topk"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode converts a -wire flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "gob":
		return Gob, nil
	case "fp64", "binary":
		return FP64, nil
	case "fp32":
		return FP32, nil
	case "topk":
		return TopK, nil
	}
	return 0, fmt.Errorf("wire: unknown mode %q (gob|fp64|fp32|topk)", s)
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m <= TopK && m != retiredSparse }

// Lossless reports whether a round trip through m reproduces every float64
// bit-exactly. TopK is lossy at the transport level (dropped coordinates
// ride the error-feedback accumulators instead of the wire), even though
// AppendGroup itself never drops values under it.
func (m Mode) Lossless() bool { return m != FP32 && m != TopK }

// Per-tensor encoding tags.
const (
	tagDenseF64 = 0
	tagDenseF32 = 1
	// Tags 2 and 3 are reserved: decoders reject them as unknown.
	tagTopK = 4
)

const (
	groupHeaderBytes  = 4  // u32 tensorCount
	tensorHeaderBytes = 5  // u8 tag + u32 elemCount
	topKEntryBytes    = 12 // u32 index + u64 bits
)

// MaxElems caps the element count a decoder will allocate for a single
// tensor, so a corrupt length prefix cannot demand gigabytes.
const MaxElems = 64 << 20

// appendU32 / appendU64 are the primitive little-endian emitters.
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// DenseTensorBytes returns the encoded size of one dense tensor of n
// elements under m (Gob sizes as FP64, the closest analytic estimate of
// gob's ~9 B/element).
func DenseTensorBytes(m Mode, n int) int64 {
	if m == FP32 {
		return tensorHeaderBytes + 4*int64(n)
	}
	return tensorHeaderBytes + 8*int64(n)
}

// DenseGroupBytes returns the encoded size of a group of dense tensors
// with the given element counts under m — the measured wire size used to
// rank sub-models for adaptive transmission without materializing values.
func DenseGroupBytes(m Mode, elemCounts []int) int64 {
	total := int64(groupHeaderBytes)
	for _, n := range elemCounts {
		total += DenseTensorBytes(m, n)
	}
	return total
}

// GroupBytes returns the exact size AppendGroup produces for group under m.
func GroupBytes(m Mode, group [][]float64) int64 {
	total := int64(groupHeaderBytes)
	for _, t := range group {
		total += DenseTensorBytes(m, len(t))
	}
	return total
}

// AppendGroup appends the encoding of group under m to dst and returns the
// extended slice. Callers reuse dst across rounds, so steady-state encoding
// allocates nothing once the buffer has grown to the payload size.
func AppendGroup(dst []byte, m Mode, group [][]float64) []byte {
	dst = appendU32(dst, uint32(len(group)))
	for _, t := range group {
		dst = AppendTensor(dst, m, t)
	}
	return dst
}

// AppendTensor appends one tensor frame under m — the per-tensor body of
// AppendGroup, exposed so callers assembling mixed groups (the top-k
// transport interleaves dense resync tensors with tag-4 deltas) can emit
// tensors one at a time after AppendGroupHeader.
func AppendTensor(dst []byte, m Mode, t []float64) []byte {
	switch m {
	case FP32:
		dst = append(dst, tagDenseF32)
		dst = appendU32(dst, uint32(len(t)))
		for _, v := range t {
			dst = appendU32(dst, math.Float32bits(float32(v)))
		}
	default: // FP64 and TopK (whose lossy encoding only exists behind
		// AppendTensorTopK); Gob callers that reach here stay lossless too
		dst = append(dst, tagDenseF64)
		dst = appendU32(dst, uint32(len(t)))
		for _, v := range t {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// Reader is a bounds-checked cursor over an encoded frame. Every method
// returns an error instead of panicking on truncated or corrupt input.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// take returns the next n bytes or an error if fewer remain.
func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || r.Len() < n {
		return nil, fmt.Errorf("wire: truncated frame: need %d bytes, have %d", n, r.Len())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Bytes reads the next n bytes. The returned slice aliases the frame
// buffer; callers that keep it must copy.
func (r *Reader) Bytes(n int) ([]byte, error) { return r.take(n) }

// U16 reads a little-endian uint16.
func (r *Reader) U16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// I32 reads a little-endian two's-complement int32 widened to int.
func (r *Reader) I32() (int, error) {
	v, err := r.U32()
	return int(int32(v)), err
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// F64 reads a little-endian float64.
func (r *Reader) F64() (float64, error) {
	v, err := r.U64()
	return math.Float64frombits(v), err
}

// DecodeGroupInto decodes one tensor group from r, reusing into's backing
// storage when shapes allow (the steady-state RPC path decodes into the
// same buffers every round). It returns the decoded group.
func DecodeGroupInto(r *Reader, into [][]float64) ([][]float64, error) {
	count, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(count) > int64(r.Len()) { // every tensor costs ≥1 byte
		return nil, fmt.Errorf("wire: tensor count %d exceeds frame size %d", count, r.Len())
	}
	if cap(into) >= int(count) {
		into = into[:count]
	} else {
		into = make([][]float64, count)
	}
	for i := range into {
		t, err := decodeTensorInto(r, into[i])
		if err != nil {
			return nil, fmt.Errorf("wire: tensor %d: %w", i, err)
		}
		into[i] = t
	}
	return into, nil
}

// decodeTensorInto decodes one tensor, reusing buf when it is large enough.
func decodeTensorInto(r *Reader, buf []float64) ([]float64, error) {
	tag, err := r.U8()
	if err != nil {
		return nil, err
	}
	n32, err := r.U32()
	if err != nil {
		return nil, err
	}
	n := int(n32)
	if n > MaxElems {
		return nil, fmt.Errorf("element count %d exceeds limit %d", n, MaxElems)
	}
	// Cheap plausibility check before allocating: dense payloads must fit in
	// what remains of the frame.
	switch tag {
	case tagDenseF64:
		if r.Len() < 8*n {
			return nil, fmt.Errorf("truncated dense f64 body: need %d bytes, have %d", 8*n, r.Len())
		}
	case tagDenseF32:
		if r.Len() < 4*n {
			return nil, fmt.Errorf("truncated dense f32 body: need %d bytes, have %d", 4*n, r.Len())
		}
	}
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]float64, n)
	}
	switch tag {
	case tagDenseF64:
		b, _ := r.take(8 * n)
		for i := range buf {
			buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case tagDenseF32:
		b, _ := r.take(4 * n)
		for i := range buf {
			buf[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
	case tagTopK:
		for i := range buf {
			buf[i] = 0
		}
		if err := decodeTopK(r, buf, false); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown tensor tag %d", tag)
	}
	return buf, nil
}

// DecodeGroup is DecodeGroupInto from a raw buffer without reuse, returning
// the group and the number of bytes consumed.
func DecodeGroup(buf []byte) ([][]float64, int, error) {
	r := NewReader(buf)
	g, err := DecodeGroupInto(r, nil)
	if err != nil {
		return nil, 0, err
	}
	return g, r.off, nil
}
