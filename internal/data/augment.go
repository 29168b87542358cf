package data

import (
	"math/rand"

	"fedrlnas/internal/tensor"
)

// AugmentConfig mirrors the paper's Table I augmentation hyperparameters.
type AugmentConfig struct {
	// RandomClip is the maximum absolute shift (pixels) of the random crop
	// ("random clip 4" in Table I, scaled down for 8×8 images).
	RandomClip int
	// FlipProb is the horizontal-flip probability ("0.5" in Table I).
	FlipProb float64
	// Cutout is the side length of the zeroed square ("cutout 16", scaled
	// down); 0 disables cutout.
	Cutout int
}

// DefaultAugment returns the Table I augmentation scaled to 8×8 images.
func DefaultAugment() AugmentConfig {
	return AugmentConfig{RandomClip: 1, FlipProb: 0.5, Cutout: 3}
}

// Apply augments a batch [N,C,H,W] in place-free fashion, returning a new
// tensor. A zero-valued config is the identity.
func (a AugmentConfig) Apply(batch *tensor.Tensor, rng *rand.Rand) *tensor.Tensor {
	return a.ApplyInto(nil, batch, rng)
}

// ApplyInto is Apply with a caller-provided output buffer, whose storage is
// reused whenever its capacity holds the batch (tensor.Resize). The input
// batch is left untouched, and the RNG draw sequence is identical to Apply's.
func (a AugmentConfig) ApplyInto(dst, batch *tensor.Tensor, rng *rand.Rand) *tensor.Tensor {
	n, c, h, w := batch.Dim(0), batch.Dim(1), batch.Dim(2), batch.Dim(3)
	dst = tensor.Resize(dst, [4]int{n, c, h, w}, 4)
	sd, dd := batch.Data(), dst.Data()
	size := c * h * w
	for b := 0; b < n; b++ {
		src := sd[b*size : (b+1)*size]
		img := dd[b*size : (b+1)*size]
		if a.RandomClip > 0 {
			dy := rng.Intn(2*a.RandomClip+1) - a.RandomClip
			dx := rng.Intn(2*a.RandomClip+1) - a.RandomClip
			shiftInto(img, src, c, h, w, dy, dx)
		} else {
			copy(img, src)
		}
		if a.FlipProb > 0 && rng.Float64() < a.FlipProb {
			flipH(img, c, h, w)
		}
		if a.Cutout > 0 {
			cy := rng.Intn(h)
			cx := rng.Intn(w)
			cutout(img, c, h, w, cy, cx, a.Cutout)
		}
	}
	return dst
}

// shiftInto writes src translated by (dy, dx) into dst, zero-filling exposed
// pixels. Reading from the untouched source image makes the shift a pure
// scatter — no temporary copy is needed.
func shiftInto(dst, src []float64, c, h, w, dy, dx int) {
	if dy == 0 && dx == 0 {
		copy(dst, src)
		return
	}
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			sy := y - dy
			for x := 0; x < w; x++ {
				sx := x - dx
				if sy < 0 || sy >= h || sx < 0 || sx >= w {
					dst[base+y*w+x] = 0
				} else {
					dst[base+y*w+x] = src[base+sy*w+sx]
				}
			}
		}
	}
}

// flipH mirrors every channel horizontally.
func flipH(img []float64, c, h, w int) {
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			row := img[base+y*w : base+(y+1)*w]
			for x := 0; x < w/2; x++ {
				row[x], row[w-1-x] = row[w-1-x], row[x]
			}
		}
	}
}

// cutout zeroes a size×size square centred at (cy, cx) in every channel.
func cutout(img []float64, c, h, w, cy, cx, size int) {
	half := size / 2
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := cy - half; y <= cy+half; y++ {
			if y < 0 || y >= h {
				continue
			}
			for x := cx - half; x <= cx+half; x++ {
				if x < 0 || x >= w {
					continue
				}
				img[base+y*w+x] = 0
			}
		}
	}
}
