package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// naiveDense is a dense conv's output on x with weights wd and bias bd (nil
// for none): each output one accumulator from +0 over the in-image taps in
// (ic,ky,kx) order, w·x per term, then + b.
func naiveDense(c *Conv2D, x *tensor.Tensor, wd, bd []float64) []float64 {
	n, _, h, w := mustDims4(x, "naiveDense")
	oh := convOutDim(h, c.KH, c.Stride, c.Pad, c.Dilation)
	ow := convOutDim(w, c.KW, c.Stride, c.Pad, c.Dilation)
	xd, out := x.Data(), make([]float64, n*c.OutC*oh*ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := 0.0
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.KH; ky++ {
							for kx := 0; kx < c.KW; kx++ {
								iy, ix := oy*c.Stride-c.Pad+ky*c.Dilation, ox*c.Stride-c.Pad+kx*c.Dilation
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									acc += wd[((oc*c.InC+ic)*c.KH+ky)*c.KW+kx] * xd[((b*c.InC+ic)*h+iy)*w+ix]
								}
							}
						}
					}
					if bd != nil {
						acc += bd[oc]
					}
					out[((b*c.OutC+oc)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// naiveDenseGradW adds into gw, per weight, one chain from +0 over (image,
// oy, ox) of g·x over the in-image taps.
func naiveDenseGradW(c *Conv2D, x, grad *tensor.Tensor, gw []float64) {
	n, _, h, w := mustDims4(x, "naiveDenseGradW")
	oh, ow := grad.Dim(2), grad.Dim(3)
	xd, gd := x.Data(), grad.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < c.InC; ic++ {
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					acc := 0.0
					for b := 0; b < n; b++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								iy, ix := oy*c.Stride-c.Pad+ky*c.Dilation, ox*c.Stride-c.Pad+kx*c.Dilation
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									acc += gd[((b*c.OutC+oc)*oh+oy)*ow+ox] * xd[((b*c.InC+ic)*h+iy)*w+ix]
								}
							}
						}
					}
					gw[((oc*c.InC+ic)*c.KH+ky)*c.KW+kx] += acc
				}
			}
		}
	}
}

// TestLaneDenseBitIdentical holds the lane path of a dense conv of fewer
// than four input channels (the stem) to the naive loops, bit for bit: the
// training forward, the weight (and, with a bias, bias) gradient
// accumulated over two steps, and the folded eval forward with a bias,
// stored and added into a node sum.
func TestLaneDenseBitIdentical(t *testing.T) {
	geoms := []struct{ n, h, w int }{{1, 5, 7}, {2, 8, 8}, {3, 3, 5}, {5, 4, 4}, {4, 7, 3}, {1, 1, 1}}
	type tcase struct{ inC, outC, k, stride, pad, dil, n, h, w int }
	var cases []tcase
	i := 0
	for inC := 1; inC <= 3; inC++ {
		for _, outC := range []int{1, 3, 4, 6, 9} {
			for stride := 1; stride <= 2; stride++ {
				for pad := 0; pad <= 1; pad++ {
					g := geoms[i%len(geoms)]
					i++
					if g.h+2*pad < 3 || g.w+2*pad < 3 {
						g = geoms[0]
					}
					cases = append(cases, tcase{inC, outC, 3, stride, pad, 1, g.n, g.h, g.w})
				}
			}
			cases = append(cases, tcase{inC, outC, 1, 1, 0, 1, 3, 5, 3}, tcase{inC, outC, 1, 2, 0, 1, 2, 5, 5})
		}
	}
	cases = append(cases, tcase{3, 8, 3, 1, 2, 2, 2, 6, 6}, tcase{2, 5, 5, 2, 2, 1, 3, 7, 9})
	for ci, tc := range cases {
		name := fmt.Sprintf("%+v", tc)
		rng := rand.New(rand.NewSource(int64(300 + ci)))
		bias := ci%3 == 0
		c := NewConv2D("stem", rng, tc.inC, tc.outC, tc.k, ConvOpts{Stride: tc.stride, Pad: tc.pad, Dilation: tc.dil, Bias: bias})
		if !c.laneDense() {
			t.Fatalf("%s: not on the lane path", name)
		}
		oh := convOutDim(tc.h, tc.k, tc.stride, tc.pad, tc.dil)
		ow := convOutDim(tc.w, tc.k, tc.stride, tc.pad, tc.dil)
		wantGW, wantGB := make([]float64, c.weight.Grad.Size()), make([]float64, tc.outC)
		var bd []float64
		if bias {
			c.bias.Value.CopyFrom(tensor.Randn(rng, 1, tc.outC))
			bd = c.bias.Value.Data()
		}
		for step := 0; step < 2; step++ {
			x := sparseTensor(rng, tc.n, tc.inC, tc.h, tc.w)
			grad := sparseTensor(rng, tc.n, tc.outC, oh, ow)
			requireSameBits(t, name+" out", c.Forward(x).Data(), naiveDense(c, x, c.weight.Value.Data(), bd))
			c.backward(grad, false)
			naiveDenseGradW(c, x, grad, wantGW)
			requireSameBits(t, name+" gradW", c.weight.Grad.Data(), wantGW)
			if bias {
				for oc := range wantGB {
					s := 0.0 // one chain over (image, pixel)
					for b := 0; b < tc.n; b++ {
						for _, v := range grad.Data()[(b*tc.outC+oc)*oh*ow : (b*tc.outC+oc+1)*oh*ow] {
							s += v
						}
					}
					wantGB[oc] += s
				}
				requireSameBits(t, name+" gradB", c.bias.Grad.Data(), wantGB)
			}
			if c.colValid {
				t.Fatalf("%s: the lane path lowered a column matrix", name)
			}
		}

		// The folded eval forward: a stand-in weight and a bias, stored, then
		// added into a node sum as dst + (y + b).
		x := sparseTensor(rng, tc.n, tc.inC, tc.h, tc.w)
		wf, bf := tensor.Randn(rng, 1, c.weight.Value.Shape()...).Data(), tensor.Randn(rng, 1, tc.outC).Data()
		want := naiveDense(c, x, wf, bf)
		requireSameBits(t, name+" folded", c.forwardWith(x, wf, bf, nil).Data(), want)
		dst := sparseTensor(rng, tc.n, tc.outC, oh, ow)
		for j, v := range naiveDense(c, x, wf, nil) {
			want[j] = dst.Data()[j] + (v + bf[j/(oh*ow)%tc.outC])
		}
		c.forwardWith(x, wf, bf, dst)
		requireSameBits(t, name+" folded add", dst.Data(), want)
	}
}

// A depthwise layer built with reluIn (the first layer of NewSepConv and
// NewDilConv) gives the bits of a ReLU module followed by the plain layer:
// output, weight gradient, and input gradient both returned and added into
// a node's gradient.
func TestReLUInMatchesReLUModule(t *testing.T) {
	for i, g := range []dwGeometry{
		{3, 1, 1, 1, 3, 4, 8, 8}, {5, 2, 1, 2, 2, 8, 8, 8}, {3, 1, 2, 2, 3, 6, 5, 7},
		{5, 2, 2, 4, 1, 3, 4, 4}, {3, 1, 1, 1, 5, 2, 3, 3}, {3, 2, 1, 1, 2, 9, 7, 5},
	} {
		name := fmt.Sprintf("%+v", g)
		build := func(reluIn bool) *Conv2D {
			c := NewConv2D("dw", rand.New(rand.NewSource(int64(i))), g.c, g.c, g.k,
				ConvOpts{Stride: g.stride, Pad: g.pad, Dilation: g.dil, Groups: g.c})
			c.reluIn = reluIn
			return c
		}
		fused, plain, relu := build(true), build(false), NewReLU()
		ref := NewSequential(relu, plain)
		rng := rand.New(rand.NewSource(int64(50 + i)))
		for step := 0; step < 2; step++ {
			x := sparseTensor(rng, g.n, g.c, g.h, g.w)
			out := fused.Forward(x)
			requireSameBits(t, name+" out", out.Data(), ref.Forward(x).Data())
			grad := sparseTensor(rng, out.Shape()...)
			requireSameBits(t, name+" gradX", fused.Backward(grad).Data(), ref.Backward(grad).Data())
			requireSameBits(t, name+" gradW", fused.weight.Grad.Data(), plain.weight.Grad.Data())

			dst := sparseTensor(rng, x.Shape()...)
			want := dst.Clone()
			if !BackwardAdd(fused, grad, dst) || !BackwardAdd(ref, grad, want) {
				t.Fatalf("%s: BackwardAdd declined", name)
			}
			requireSameBits(t, name+" gradX added", dst.Data(), want.Data())
		}
	}
}
