package data

import (
	"fmt"
	"math/rand"
)

// Batcher draws mini-batches without replacement from a fixed index pool,
// reshuffling at each epoch boundary (the participant-side "split local
// dataset into batches" of Alg. 1 line 38).
type Batcher struct {
	pool []int
	pos  int
	rng  *rand.Rand
}

// NewBatcher builds a batcher over a participant's index pool. The pool is
// copied.
func NewBatcher(pool []int, rng *rand.Rand) (*Batcher, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("data: empty batch pool")
	}
	b := &Batcher{pool: append([]int(nil), pool...), rng: rng}
	b.shuffle()
	return b, nil
}

// Next returns the next batch of up to size indices; it wraps to a new
// shuffled epoch when the pool is exhausted. Batches never exceed the pool.
func (b *Batcher) Next(size int) []int { return b.NextInto(nil, size) }

// NextInto is Next with a caller-provided buffer: the batch is written into
// dst[:0], whose backing array is reused when large enough. The draw is
// Next's, random stream included.
func (b *Batcher) NextInto(dst []int, size int) []int {
	if size > len(b.pool) {
		size = len(b.pool)
	}
	if b.pos+size > len(b.pool) {
		b.shuffle()
		b.pos = 0
	}
	dst = append(dst[:0], b.pool[b.pos:b.pos+size]...)
	b.pos += size
	return dst
}

// PoolSize returns the number of indices the batcher cycles through.
func (b *Batcher) PoolSize() int { return len(b.pool) }

// State returns the batcher's resumable state: a copy of the current
// (shuffled) pool order and the position within the epoch. Together with
// the RNG stream position this is everything a checkpoint needs to
// continue the batch sequence exactly where it stopped.
func (b *Batcher) State() (pool []int, pos int) {
	return append([]int(nil), b.pool...), b.pos
}

// RestoreState installs a pool order and cursor captured by State. The
// incoming pool must be a permutation of the batcher's own — the shard
// membership is construction state, only its order is resumable.
func (b *Batcher) RestoreState(pool []int, pos int) error {
	if len(pool) != len(b.pool) {
		return fmt.Errorf("data: restore pool size %d != %d", len(pool), len(b.pool))
	}
	if pos < 0 || pos > len(pool) {
		return fmt.Errorf("data: restore position %d outside pool of %d", pos, len(pool))
	}
	counts := make(map[int]int, len(b.pool))
	for _, v := range b.pool {
		counts[v]++
	}
	for _, v := range pool {
		counts[v]--
		if counts[v] < 0 {
			return fmt.Errorf("data: restore pool is not a permutation (unexpected index %d)", v)
		}
	}
	copy(b.pool, pool)
	b.pos = pos
	return nil
}

func (b *Batcher) shuffle() {
	b.rng.Shuffle(len(b.pool), func(i, j int) {
		b.pool[i], b.pool[j] = b.pool[j], b.pool[i]
	})
}
