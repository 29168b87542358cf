package nn

import (
	"fmt"

	"fedrlnas/internal/tensor"
)

// im2col lowers convolution to matrix multiplication: patches of the input
// become columns of a matrix that is multiplied by the flattened kernels.
// The whole batch is lowered at once into a single [C*kH*kW, N*oH*oW]
// column matrix so each pass runs ONE GEMM per layer (wide enough to
// amortize the kernel's packing) instead of a small matmul per image.
//
// Conv2D uses it for Groups == 1; depthwise convolutions take the lane
// path in depthwise.go, and a dense layer of fewer than four input channels
// (the stem) the one in lanedense.go.
//
// A pointwise convolution (1×1, stride 1, no padding) needs no lowering at
// all: image b's column matrix is its [C, H·W] activation block as it lies in
// memory, so the forward product and the input gradient run as one batched
// GEMM straight between the NCHW tensors (tensor.GemmRawBatched). Only the
// weight gradient, whose reduction runs across the whole batch in one
// ascending chain, still gathers its operands into batch-wide matrices.

// im2colBuffer extracts patches from one image [C,H,W] into columns
// [colOff, colOff+oH*oW) of a column matrix with row stride ld. With
// ld = oH*oW and colOff = 0 it produces the single-image [C*kH*kW, oH*oW]
// matrix; the batch path lays images side by side with ld = N*oH*oW.
func im2colBuffer(xd []float64, c, h, w, kh, kw, stride, pad, dilation, oh, ow int, out []float64, ld, colOff int) {
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		// Pointwise fast path: row ch of the column matrix is channel ch's
		// plane verbatim.
		for ch := 0; ch < c; ch++ {
			copy(out[ch*ld+colOff:ch*ld+colOff+oh*ow], xd[ch*h*w:ch*h*w+oh*ow])
		}
		return
	}
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kh; ky++ {
			kyOff := ky*dilation - pad
			for kx := 0; kx < kw; kx++ {
				kxOff := kx*dilation - pad
				ox0, ox1 := convValid(ow, kxOff, stride, w)
				rowBase := ((ch*kh+ky)*kw+kx)*ld + colOff
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + kyOff
					dst := out[rowBase+oy*ow : rowBase+(oy+1)*ow]
					if iy < 0 || iy >= h || ox0 > ox1 {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					for i := range dst[:ox0] {
						dst[i] = 0
					}
					for i := range dst[ox1+1:] {
						dst[ox1+1+i] = 0
					}
					srcRow := base + iy*w
					if stride == 1 {
						copy(dst[ox0:ox1+1], xd[srcRow+ox0+kxOff:srcRow+ox1+kxOff+1])
					} else {
						ix := ox0*stride + kxOff
						for ox := ox0; ox <= ox1; ox++ {
							dst[ox] = xd[srcRow+ix]
							ix += stride
						}
					}
				}
			}
		}
	}
}

// col2imAdd scatters columns [colOff, colOff+oH*oW) of a column matrix with
// row stride ld back into an image gradient [C,H,W], accumulating overlaps
// (the transpose of im2colBuffer).
func col2imAdd(cols []float64, c, h, w, kh, kw, stride, pad, dilation, oh, ow int, dst []float64, ld, colOff int) {
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		for ch := 0; ch < c; ch++ {
			src := cols[ch*ld+colOff : ch*ld+colOff+oh*ow]
			d := dst[ch*h*w : ch*h*w+oh*ow]
			for i, v := range src {
				d[i] += v
			}
		}
		return
	}
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kh; ky++ {
			kyOff := ky*dilation - pad
			oy0, oy1 := convValid(oh, kyOff, stride, h)
			for kx := 0; kx < kw; kx++ {
				kxOff := kx*dilation - pad
				ox0, ox1 := convValid(ow, kxOff, stride, w)
				rowBase := ((ch*kh+ky)*kw+kx)*ld + colOff
				for oy := oy0; oy <= oy1; oy++ {
					srcRow := rowBase + oy*ow
					dstRow := base + (oy*stride+kyOff)*w
					ix := ox0*stride + kxOff
					for ox := ox0; ox <= ox1; ox++ {
						dst[dstRow+ix] += cols[srcRow+ox]
						ix += stride
					}
				}
			}
		}
	}
}

// pointwise reports whether the layer's column matrix is its input as it
// lies in memory. Such a layer offers its products to tensor.GemmRawBatched,
// which declines planes that are not whole GEMM tiles (2×2 on every kernel);
// those keep the batch-wide column matrix, which tiles across images.
func (c *Conv2D) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// lowerBatch fills colBuf (row stride total = n*cols) with the whole batch.
func (c *Conv2D) lowerBatch(x *tensor.Tensor, n, h, w, oh, ow int) {
	xd := x.Data()
	cols := oh * ow
	total := n * cols
	imgSize := c.InC * h * w
	for b := 0; b < n; b++ {
		im2colBuffer(xd[b*imgSize:(b+1)*imgSize], c.InC, h, w, c.KH, c.KW,
			c.Stride, c.Pad, c.Dilation, oh, ow, c.colBuf, total, b*cols)
	}
}

// forwardIm2col computes the convolution with weight wt and bias b (nil
// for none) via batch im2col + one GEMM for Groups==1 (or the lane or
// batched-GEMM paths, which lower nothing), taking the output and the
// column matrices from ar. With a non-nil dst it adds y + b into
// dst, which must have the output's shape, instead of returning a buffer of
// its own (a cell's node sum; b must be set). The bias rides the pass
// that stores the product: the scatter out of the column matrix, or the one
// pass over a pointwise layer's in-place product.
func (c *Conv2D) forwardIm2col(ar *tensor.Arena, x *tensor.Tensor, wt, b []float64, dst *tensor.Tensor) *tensor.Tensor {
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := convOutDim(h, c.KH, c.Stride, c.Pad, c.Dilation)
	ow := convOutDim(w, c.KW, c.Stride, c.Pad, c.Dilation)
	k := c.InC * c.KH * c.KW
	cols := oh * ow
	total := n * cols

	// y receives the product: the output itself, or, when adding into dst,
	// step storage that also serves as the column product below.
	out, add := dst, dst != nil
	var y []float64
	if add {
		if b == nil || !dst.ShapeIs(n, c.OutC, oh, ow) {
			panic(fmt.Sprintf("nn: Conv2D adds [%d %d %d %d] and a bias into %v", n, c.OutC, oh, ow, dst.Shape()))
		}
		y = ar.Floats(c.OutC * total)
	} else {
		out = ar.Take(&c.outBuf, n, c.OutC, oh, ow)
		y = out.Data()
	}
	od := out.Data()
	// The lane and batched-GEMM paths lower nothing; they store the product
	// in y and add the bias in one pass over it.
	lanes := c.laneDense()
	if lanes {
		c.forwardLanes(ar, x, wt, y, n, h, w, oh, ow)
	}
	if lanes || c.pointwise() && tensor.GemmRawBatched(false, n, c.OutC, cols, c.InC, 1,
		wt, c.InC, x.Data(), cols, c.InC*cols, 0, y, cols, c.OutC*cols) {
		c.colValid = false
		if b != nil {
			for i := 0; i < n*c.OutC; i++ {
				storeBias(od[i*cols:(i+1)*cols], y[i*cols:(i+1)*cols], b[i%c.OutC], add)
			}
		}
		return out
	}
	c.colBuf = ar.Floats(k * total)
	outCol := y
	if !add {
		defer ar.Release(ar.Mark()) // the product dies with the scatter
		outCol = ar.Floats(c.OutC * total)
	}
	c.lowerBatch(x, n, h, w, oh, ow)
	c.colValid = true

	// outCol [OutC, total] = W [OutC, k] · colAll [k, total]
	tensor.GemmRaw(false, false, c.OutC, total, k, 1, wt, k, c.colBuf, total, 0, outCol, total)

	// Scatter image-major: outCol[oc, b*cols+j] → out[b, oc, j], plus bias.
	for oc := 0; oc < c.OutC; oc++ {
		src := outCol[oc*total : (oc+1)*total]
		for i := 0; i < n; i++ {
			d := od[(i*c.OutC+oc)*cols : (i*c.OutC+oc+1)*cols]
			s := src[i*cols : (i+1)*cols]
			if b == nil {
				copy(d, s)
			} else {
				storeBias(d, s, b[oc], add)
			}
		}
	}
	return out
}

// storeBias stores s + bv into d, or adds it (d += s + bv) when add is set;
// d may be s.
func storeBias(d, s []float64, bv float64, add bool) {
	if add {
		for j, v := range s {
			d[j] += v + bv
		}
		return
	}
	for j, v := range s {
		d[j] = v + bv
	}
}

// backwardIm2col computes weight/bias/input gradients with two GEMMs over
// the batch-wide column representation for Groups==1. With needGradX false
// only the parameter gradients are accumulated and nil is returned. A
// layer of fewer than four input channels takes its weight gradient from
// gradWDense, and a bias-free pointwise layer of ≥ 4 input and output
// channels whose forward lowered nothing from gradWLanes.
func (c *Conv2D) backwardIm2col(grad *tensor.Tensor, needGradX bool) *tensor.Tensor {
	x, ar := c.lastX, c.ar
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := grad.Dim(2), grad.Dim(3)
	k := c.InC * c.KH * c.KW
	cols := oh * ow
	total := n * cols
	gd := grad.Data()

	if c.bias != nil {
		// One chain per channel over (image, pixel): a row of the gathered
		// gradient matrix, read in place.
		gbd := c.bias.Grad.Data()
		for oc := 0; oc < c.OutC; oc++ {
			s := 0.0
			for b := 0; b < n; b++ {
				for _, v := range gd[(b*c.OutC+oc)*cols : (b*c.OutC+oc+1)*cols] {
					s += v
				}
			}
			gbd[oc] += s
		}
	}
	var gradCol []float64
	switch {
	case c.laneDense():
		c.gradWDense(ar, x.Data(), gd, n, h, w, oh, ow)
	case c.pointwise() && !c.colValid && c.bias == nil && c.InC >= 4 && c.OutC >= 4:
		c.gradWLanes(ar, x.Data(), gd, n, cols)
	default:
		if !c.colValid {
			c.colBuf = ar.Floats(k * total)
			c.lowerBatch(x, n, h, w, oh, ow)
			c.colValid = true
		}
		gradCol = c.gatherGrad(ar, gd, n, total, cols)
		// gradW [OutC, k] += gradCol [OutC, total] · colAllᵀ [total, k]
		tensor.GemmRaw(false, true, c.OutC, k, total, 1,
			gradCol, total, c.colBuf, total, 1, c.weight.Grad.Data(), k)
	}
	if !needGradX {
		return nil
	}
	gradX := ar.TakeLike(&c.gradXBuf, x)
	// Pointwise: gradX[b] [InC, cols] = Wᵀ [InC, OutC] · grad[b] [OutC, cols].
	// A GEMM accumulator starts at +0 and so is never -0: storing it equals
	// the 0 + v the scatter below would produce.
	if c.pointwise() && tensor.GemmRawBatched(true, n, c.InC, cols, c.OutC, 1,
		c.weight.Value.Data(), c.InC, gd, cols, c.OutC*cols, 0, gradX.Data(), cols, c.InC*cols) {
		return gradX
	}
	if gradCol == nil {
		gradCol = c.gatherGrad(ar, gd, n, total, cols)
	}
	// colGrad [k, total] = Wᵀ [k, OutC] · gradCol [OutC, total]
	defer ar.Release(ar.Mark())
	colGrad := ar.Floats(k * total)
	tensor.GemmRaw(true, false, k, total, c.OutC, 1,
		c.weight.Value.Data(), k, gradCol, total, 0, colGrad, total)

	gradX.Zero() // col2imAdd accumulates into it
	gxd := gradX.Data()
	imgSize := c.InC * h * w
	for b := 0; b < n; b++ {
		col2imAdd(colGrad, c.InC, h, w, c.KH, c.KW,
			c.Stride, c.Pad, c.Dilation, oh, ow, gxd[b*imgSize:(b+1)*imgSize], total, b*cols)
	}
	return gradX
}

// gatherGrad copies the output gradient image-major into a [OutC, total]
// matrix taken from ar.
func (c *Conv2D) gatherGrad(ar *tensor.Arena, gd []float64, n, total, cols int) []float64 {
	gradCol := ar.Floats(c.OutC * total)
	for oc := 0; oc < c.OutC; oc++ {
		dst := gradCol[oc*total : (oc+1)*total]
		for b := 0; b < n; b++ {
			copy(dst[b*cols:(b+1)*cols], gd[(b*c.OutC+oc)*cols:(b*c.OutC+oc+1)*cols])
		}
	}
	return gradCol
}

// gradWLanes accumulates a pointwise layer's weight gradient through
// tensor.DWGemmAcc: four input channels of the whole batch are
// lane-interleaved, and four rows of the output gradient are read in place
// from its NCHW layout, so nothing is lowered, gathered or packed. Each
// element is the GEMM's single chain over (image, pixel) from +0, then added
// into the gradient once (both axes step in laneGroup's groups): the bits of
// the lowered-batch path.
func (c *Conv2D) gradWLanes(ar *tensor.Arena, xd, gd []float64, n, cols int) {
	const L = tensor.DWLanes
	defer ar.Release(ar.Mark())
	xi, acc := ar.Floats(n*cols*L), ar.Floats(4*L)
	gw := c.weight.Grad.Data()
	for i := 0; i < c.InC; i += L {
		i0, iskip := laneGroup(i, c.InC)
		for b := 0; b < n; b++ {
			tensor.DWInterleave(xi, b*cols, cols, 1, xd[(b*c.InC+i0)*cols:], 1, cols)
		}
		for o := 0; o < c.OutC; o += 4 {
			o0, oskip := laneGroup(o, c.OutC)
			clear(acc)
			tensor.DWGemmAcc(acc, gd[o0*cols:], cols, c.OutC*cols, xi, cols, n)
			for r := oskip; r < 4; r++ {
				row := gw[(o0+r)*c.InC+i0 : (o0+r)*c.InC+i0+L]
				for l := iskip; l < L; l++ {
					row[l] += acc[r*L+l]
				}
			}
		}
	}
}
