package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Arena is step-scoped storage: slices handed out in call order from a few
// large float64 slabs and released all at once by Reset. A model resets its
// arena when a step starts, so everything the step takes — activations,
// masks, scratch, input gradients, index tables — lives until the next step,
// and the model holds one step's buffers instead of one set per module it
// might run.
//
// Storage that dies inside a step can go back sooner: Release hands back
// everything taken since a Mark, so the takes behave as a stack. An op
// marks before its scratch and releases once its result is out; the next
// take reuses the words.
//
// A step that outgrows the slabs appends one per take that does not fit,
// holding the take and an eighth of the largest step before it (a quarter
// of what the first step took so far). The Reset after the first step, and
// after any step that held at least twice what the arena last folded,
// folds the slabs into one with an eighth to spare. A step's size is its
// peak: the most words it held at once, releases included. Folds are thus
// logarithmic in growth, so slabs never churn, and an arena whose first
// step was small drops its growth slabs once a step doubles it. Once the
// largest step has run, no step allocates.
// The zero Arena is ready to use; it is not safe for concurrent use.
type Arena struct {
	bufs       [][]float64
	cur, off   int // carving bufs[cur] from off on
	used, peak int // words held now; the most held at once this step
	high       int // the largest peak of any step
	folded     int // high at the last fold, 0 before the first
}

// Mark is a position in an arena's step, for Release.
type Mark struct{ cur, off, used int }

// Reset releases everything taken since the previous Reset. Built with the
// fedcheck tag it first poisons the released storage with poisonBits, so a
// reader of a dead buffer computes NaNs or indexes out of range instead of
// reusing plausible stale values.
func (a *Arena) Reset() {
	if fedcheck {
		for _, b := range a.bufs {
			poison(b)
		}
	}
	a.high = max(a.high, a.peak)
	if len(a.bufs) > 1 && a.high >= 2*a.folded {
		clear(a.bufs) // drop the old slabs, not just hide them past len
		a.bufs = append(a.bufs[:0], alloc(a.high+a.high/8))
		a.folded = a.high
	}
	a.cur, a.off, a.used, a.peak = 0, 0, 0, 0
}

// Mark returns the arena's current position: a later Release(m) hands back
// everything taken after it.
func (a *Arena) Mark() Mark { return Mark{a.cur, a.off, a.used} }

// Release hands back everything taken since m, which must be no later than
// the arena's position (takes and releases nest like a stack): the next
// takes reuse that storage, so whoever still holds a slice of it must not
// read or write it again. Built with the fedcheck tag it poisons the
// released words, as Reset does.
func (a *Arena) Release(m Mark) {
	if m.used > a.used {
		panic(fmt.Sprintf("tensor: arena release to %d words, past the %d held", m.used, a.used))
	}
	if fedcheck {
		for i := m.cur; i <= a.cur && i < len(a.bufs); i++ {
			b := a.bufs[i]
			if i == a.cur {
				b = b[:a.off]
			}
			if i == m.cur {
				b = b[m.off:]
			}
			poison(b)
		}
	}
	a.cur, a.off, a.used = m.cur, m.off, m.used
}

// Words returns how many words the arena holds across its slabs.
func (a *Arena) Words() int {
	n := 0
	for _, b := range a.bufs {
		n += len(b)
	}
	return n
}

// Floats returns n float64s of step storage. Their contents are unspecified:
// the caller writes every element before reading it.
func (a *Arena) Floats(n int) []float64 {
	for a.cur < len(a.bufs) && n > len(a.bufs[a.cur])-a.off {
		a.cur, a.off = a.cur+1, 0
	}
	if a.cur == len(a.bufs) {
		// A new slab holds the take and a quarter of what a first step took
		// so far (so that step needs logarithmically many slabs and
		// overshoots little), or an eighth of the largest earlier step.
		spare := a.used / 4
		if a.high > 0 {
			spare = a.high / 8
		}
		a.bufs = append(a.bufs, alloc(n+spare))
	}
	b := a.bufs[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	a.used += n
	a.peak = max(a.peak, a.used)
	return b
}

// Ints is Floats for ints, carved from the same slabs (an int is no wider
// than a float64 word, and neither holds a pointer), so one high-water mark
// sizes both.
func (a *Arena) Ints(n int) []int {
	return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(a.Floats(n)))), n)
}

// Take points t at fresh step storage of the given shape and returns it. Only
// t's header is rewritten, in place (a shape of rank ≤ 4 lives inside the
// header), so a take allocates nothing but arena storage; whoever still holds
// t sees the new shape and storage. Contents are unspecified, as for Floats.
func (a *Arena) Take(t *Tensor, shape ...int) *Tensor {
	t.setShape(shape)
	t.data = a.Floats(checkShape(t.shape))
	return t
}

// TakeLike is Take with src's shape.
func (a *Arena) TakeLike(t, src *Tensor) *Tensor { return a.Take(t, src.shape...) }

func alloc(n int) []float64 {
	b := make([]float64, n)
	if fedcheck {
		poison(b) // fresh storage must not pass for a cleared buffer either
	}
	return b
}

// Fedcheck reports a build with the fedcheck tag. Code outside this package
// guards its lifetime checks with it, so they compile away otherwise.
const Fedcheck = fedcheck

// Poison overwrites the storage of ts with the poison pattern, marking
// buffers whose owner's contract says they are dead. Call it only under
// Fedcheck.
func Poison(ts ...*Tensor) {
	for _, t := range ts {
		if t != nil {
			poison(t.data)
		}
	}
}

// poisonBits is a signalling NaN — arithmetic on it yields a NaN, so it
// propagates into every result it touches — and, read as an int, an index
// far past any slice.
const poisonBits = 0x7FF0DEADDEADDEAD

func poison(s []float64) {
	for i := range s {
		s[i] = math.Float64frombits(poisonBits)
	}
}
