package nn

import "fedrlnas/internal/tensor"

// A dense convolution of fewer than four input channels — the network's
// stem, three image channels into C — runs on the lane kernels of
// depthwise.go instead of a [InC·KH·KW, N·oH·oW] column matrix and two
// GEMMs. The lanes are four output channels, and each input plane is
// broadcast into all four lanes (tensor.DWBroadcast):
//
//	xr  the batch's input planes, image after image and channel after
//	    channel, each broadcast across the lanes inside a Pad-wide zero
//	    border, so tap (ic,ky,kx) of output (b,oy,ox) sits at a fixed
//	    offset from the pixel's window origin and one tap table covers all
//	    InC·KH·KW taps.
//
// Bits: an output is tensor.DWTaps' one chain from +0 over the taps in
// (ic,ky,kx) order, w·x per term — the GEMM's chain over the column
// matrix's rows, whose out-of-image entries are zeros as xr's border is.
// The weight gradient is tensor.DWGradW's one chain per tap over (image,
// pixel) from +0, g·x per term, the order the GEMM walks the batch-wide
// column matrix in, then added into the gradient once, as the GEMM adds
// its product into it. A bias is added afterwards, as the GEMM path's
// scatter adds it. The input gradient, which only a layer that is not a
// network's first needs, keeps the GEMM path.

// laneDense reports whether a dense layer runs on the lane kernels.
func (c *Conv2D) laneDense() bool { return c.Groups == 1 && c.InC < tensor.DWLanes }

// densePlan is one lane-dense call's broadcast input and offset tables.
type densePlan struct {
	npix, ntaps int // N·oH·oW and InC·KH·KW
	xr          []float64
	xpix        []int // per output pixel (b,oy,ox): window origin in xr (padded)
	taps        []int // per tap (ic,ky,kx): offset from an origin (padded)
}

// densePlanFor carves the plan for the batch xd of n InC×h×w images from ar.
func (c *Conv2D) densePlanFor(ar *tensor.Arena, xd []float64, n, h, w, oh, ow int) densePlan {
	const L = tensor.DWLanes
	pad, s, d := c.Pad, c.Stride, c.Dilation
	xpW := w + 2*pad
	plane := (h + 2*pad) * xpW
	img := c.InC * plane
	p := densePlan{npix: n * oh * ow, ntaps: c.InC * c.KH * c.KW}
	p.xr = ar.Floats(n * img * L)
	clear(p.xr)
	for i := 0; i < n*c.InC; i++ {
		tensor.DWBroadcast(p.xr, i*plane+pad*xpW+pad, xpW, 1, xd[i*h*w:], h, w)
	}
	p.xpix = ar.Ints(roundUp4(p.npix))
	i := 0
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				p.xpix[i] = (b*img + oy*s*xpW + ox*s) * L
				i++
			}
		}
	}
	for ; i < len(p.xpix); i++ {
		p.xpix[i] = p.xpix[0] // the extra results are ignored
	}
	p.taps = ar.Ints(roundUp4(p.ntaps))
	clear(p.taps) // padding taps read offset 0
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				p.taps[(ic*c.KH+ky)*c.KW+kx] = (ic*plane + ky*d*xpW + kx*d) * L
			}
		}
	}
	return p
}

// forwardLanes writes the product of weight wt and the batch x into y
// ([N, OutC, oH, oW]), four output channels at a time in laneGroup's
// groups; a layer of fewer than four output channels runs on a padded
// copy. Everything it takes from ar is released when it returns.
func (c *Conv2D) forwardLanes(ar *tensor.Arena, x *tensor.Tensor, wt, y []float64, n, h, w, oh, ow int) {
	const L = tensor.DWLanes
	defer ar.Release(ar.Mark())
	p := c.densePlanFor(ar, x.Data(), n, h, w, oh, ow)
	wl, res := ar.Floats(p.ntaps*L), ar.Floats(len(p.xpix)*L)
	C, cs, npix := c.OutC, max(c.OutC, L), oh*ow
	yd := y
	if C < L {
		yd = ar.Floats(n * L * npix)
	}
	for oc := 0; oc < C; oc += L {
		oc0, _ := laneGroup(oc, C)
		loadLaneWeights(wl, wt, p.ntaps, oc0, C)
		tensor.DWTaps(res, p.xr, p.xpix, p.taps[:p.ntaps], wl)
		for b := 0; b < n; b++ {
			tensor.DWDeinterleave(yd[(b*cs+oc0)*npix:], res[b*npix*L:], npix)
		}
	}
	if C < L {
		unpadLanes(y, yd, n, C, npix)
	}
}

// gradWDense accumulates the weight gradient from the batch xd and the
// output gradient gd: the four output channels' gradients of every image
// are lane-interleaved into one stream, so each tap's chain runs over the
// whole batch in one DWGradW call. Everything it takes from ar is released
// when it returns.
func (c *Conv2D) gradWDense(ar *tensor.Arena, xd, gd []float64, n, h, w, oh, ow int) {
	const L = tensor.DWLanes
	defer ar.Release(ar.Mark())
	p := c.densePlanFor(ar, xd, n, h, w, oh, ow)
	C, cs, npix := c.OutC, max(c.OutC, L), oh*ow
	gd = padLanes(ar, gd, n, C, npix)
	gi, gwl, gpix := ar.Floats(p.npix*L), ar.Floats(len(p.taps)*L), ar.Ints(p.npix)
	for i := range gpix {
		gpix[i] = i * L
	}
	gw := c.weight.Grad.Data()
	for oc := 0; oc < C; oc += L {
		oc0, skip := laneGroup(oc, C)
		for b := 0; b < n; b++ {
			tensor.DWInterleave(gi, b*npix, ow, 1, gd[(b*cs+oc0)*npix:], oh, ow)
		}
		tensor.DWGradW(gwl, gi, gpix, p.xr, p.xpix[:p.npix], p.taps)
		for l := skip; l < min(L, C-oc0); l++ {
			row := gw[(oc0+l)*p.ntaps : (oc0+l+1)*p.ntaps]
			for t := range row {
				row[t] += gwl[t*L+l]
			}
		}
	}
}
