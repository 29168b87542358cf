package nn

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// directForward is the naive convolution every fast path is held to: per
// output, one accumulator started at the bias (+0 without one) that adds the
// in-bounds taps of its group's input channels in (ic,ky,kx) order.
func directForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := convOutDim(h, c.KH, c.Stride, c.Pad, c.Dilation)
	ow := convOutDim(w, c.KW, c.Stride, c.Pad, c.Dilation)
	icg, ocg := c.InC/c.Groups, c.OutC/c.Groups
	out := tensor.New(n, c.OutC, oh, ow)
	xd, wd, od := x.Data(), c.weight.Value.Data(), out.Data()
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			var biasV float64
			if c.bias != nil {
				biasV = c.bias.Value.Data()[oc]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := biasV
					for i := 0; i < icg; i++ {
						xBase := ((b*c.InC + oc/ocg*icg + i) * h) * w
						wBase := ((oc*icg + i) * c.KH) * c.KW
						for ky := 0; ky < c.KH; ky++ {
							iy := oy*c.Stride - c.Pad + ky*c.Dilation
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < c.KW; kx++ {
								ix := ox*c.Stride - c.Pad + kx*c.Dilation
								if ix < 0 || ix >= w {
									continue
								}
								acc += xd[xBase+iy*w+ix] * wd[wBase+ky*c.KW+kx]
							}
						}
					}
					od[((b*c.OutC+oc)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// depthwiseBackward is the naive depthwise backward: each input-gradient
// element one accumulator from +0 over the in-bounds taps in (ky,kx) order,
// and each weight-gradient element one chain from +0 over the outputs in
// (oy,ox) order, added into gw once per image. A one-channel layer is built
// dense (Groups 1), and its GEMM runs that chain across the whole batch.
func depthwiseBackward(c *Conv2D, x, grad *tensor.Tensor, gw []float64) *tensor.Tensor {
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := grad.Dim(2), grad.Dim(3)
	gx := tensor.New(n, ch, h, w)
	xd, gd, wd, gxd := x.Data(), grad.Data(), c.weight.Value.Data(), gx.Data()
	s, pad, d, kh, kw := c.Stride, c.Pad, c.Dilation, c.KH, c.KW
	for pl := 0; pl < n*ch; pl++ {
		f := wd[pl%ch*kh*kw:]
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				acc := 0.0
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						ny, nx := iy+pad-ky*d, ix+pad-kx*d
						if ny < 0 || nx < 0 || ny%s != 0 || nx%s != 0 || ny/s >= oh || nx/s >= ow {
							continue
						}
						acc += gd[(pl*oh+ny/s)*ow+nx/s] * f[ky*kw+kx]
					}
				}
				gxd[(pl*h+iy)*w+ix] = acc
			}
		}
	}
	for k := 0; k < ch; k++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				acc := 0.0
				for b := 0; b < n; b++ {
					pl := b*ch + k
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*s-pad+ky*d, ox*s-pad+kx*d
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								acc += gd[(pl*oh+oy)*ow+ox] * xd[(pl*h+iy)*w+ix]
							}
						}
					}
					if c.Groups > 1 || b == n-1 {
						gw[(k*kh+ky)*kw+kx] += acc
						acc = 0
					}
				}
			}
		}
	}
	return gx
}

func TestIm2colForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []ConvOpts{
		{Pad: 1},
		{Stride: 2, Pad: 1},
		{Pad: 2, Dilation: 2},
		{Bias: true},
		{Stride: 2, Pad: 2, Dilation: 2, Bias: true},
	}
	for i, opts := range cases {
		c := NewConv2D("c", rng, 3, 5, 3, opts)
		x := tensor.Randn(rng, 1, 2, 3, 7, 7)
		fast := c.Forward(x)
		slow := directForward(c, x)
		if !fast.AllClose(slow, 1e-10) {
			t.Fatalf("case %d: im2col forward diverges from direct loops", i)
		}
	}
}

// The im2col backward is covered against finite differences by the main
// conv gradient tests (TestConv2DGradients exercises Groups==1 cases); this
// test checks the col2im scatter is the exact adjoint of the im2col gather.
func TestCol2imIsAdjointOfIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const (
		ch, h, w    = 2, 5, 5
		kh, kw      = 3, 3
		stride, pad = 2, 1
		dilation    = 1
	)
	oh := (h+2*pad-(dilation*(kh-1)+1))/stride + 1
	ow := (w+2*pad-(dilation*(kw-1)+1))/stride + 1
	k := ch * kh * kw
	cols := oh * ow

	x := make([]float64, ch*h*w)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, k*cols)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	// <im2col(x), y> must equal <x, col2im(y)> (adjoint identity).
	ax := make([]float64, k*cols)
	im2colBuffer(x, ch, h, w, kh, kw, stride, pad, dilation, oh, ow, ax, cols, 0)
	lhs := 0.0
	for i := range ax {
		lhs += ax[i] * y[i]
	}
	aty := make([]float64, ch*h*w)
	col2imAdd(y, ch, h, w, kh, kw, stride, pad, dilation, oh, ow, aty, cols, 0)
	rhs := 0.0
	for i := range aty {
		rhs += aty[i] * x[i]
	}
	if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func BenchmarkConvForwardIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", rng, 8, 8, 3, ConvOpts{Pad: 1})
	x := tensor.Randn(rng, 1, 16, 8, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Forward(x)
	}
}
