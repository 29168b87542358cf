package nn

import (
	"fedrlnas/internal/tensor"
)

// Depthwise convolutions and the 3×3 pools run on one algorithm on every
// build: four planes at a time (laneGroup), lane-interleaved, through the
// kernels in tensor/depthwise.go (AVX2 where the CPU has it, the portable
// go-lanes4 pair otherwise — the kernel differs by platform, the algorithm
// does not).
//
// Contract, held by the tests to naive loops that skip out-of-image taps:
// every output, input-gradient and per-plane weight-gradient element is one
// accumulator started at +0 that adds its taps in (ky,kx) ascending order —
// weight-gradient chains add their pixels in (oy,ox) ascending order — with a
// separate multiply and add. This path reads the skipped taps from a zero
// border instead, which adds ±0 terms and so cannot change an accumulator
// that started at +0 (tensor/depthwise.go has the argument and its one
// caveat, non-finite factors). That is why a depthwise conv takes no bias:
// an accumulator started at a bias of -0 would be flipped to +0 by a padding
// term.
//
// Layout per call on one group of four planes:
//
//	xp  the four input planes, lane-interleaved, inside a Pad-wide zero
//	    border, so tap (ky,kx) of output (oy,ox) sits at a fixed offset from
//	    the pixel's window origin;
//	gp  the four output-gradient planes, lane-interleaved, spread Stride
//	    apart (zeros between) inside a zero border wide enough that the
//	    input gradient is the same tap table walked backwards from each
//	    input pixel (which is why Pad may not exceed the kernel's reach).
//
// Both planes and the tables live in the step's arena, rebuilt per call and
// released when it returns: the planes are cleared first, since their
// borders and gaps must read +0 and arena storage holds whatever it last
// held.
//
// A layer built with reluIn (the first layer of a separable or dilated
// block) applies the ReLU ahead of it itself: it rectifies the interior of
// xp after each interleave (tensor.ReLU, so ReLU(x) = x where x > 0, else
// +0, bit for bit what a ReLU module's output held; the border stays +0),
// and masks its input gradient with x > 0 (tensor.ReLUGrad with x for the
// ReLU's output, which is > 0 exactly where x is). The rectified input is
// never stored.

// dwPlan holds one call's offset tables and scratch.
type dwPlan struct {
	npix, ntaps int // oh*ow and KH*KW; tables are padded to multiples of 4

	xp           []float64
	xpW          int
	gp           []float64
	gpW          int
	gOffY, gOffX int // position of output gradient (0,0) in gp

	xpix  []int // per output pixel: window origin in xp (padded)
	gpix  []int // per output pixel: its position in gp
	gxpix []int // per input pixel: window origin in gp (padded)
	ftaps []int // tap offsets from an xp origin (padded for the gradW kernel)
	btaps []int // tap offsets from a gp origin (all ≤ 0)

	wl  []float64 // the group's weights, [tap][lane]
	gwl []float64 // per-plane weight gradient, [tap][lane]
	res []float64 // kernel output, [pixel][lane]
}

func roundUp4(n int) int { return (n + 3) &^ 3 }

// dwGeom is a sliding window's geometry: kernel size, stride, padding and
// dilation. Convolutions and pools share the plan built from it.
type dwGeom struct{ kh, kw, stride, pad, dil int }

func (c *Conv2D) geom() dwGeom { return dwGeom{c.KH, c.KW, c.Stride, c.Pad, c.Dilation} }

// dwPlanFor carves the plan for an h×w input from ar; only a backward pass
// needs gp, gwl and the gradient tables.
func dwPlanFor(ar *tensor.Arena, g dwGeom, h, w, oh, ow int, backward bool) dwPlan {
	const L = tensor.DWLanes
	d, s, pad := g.dil, g.stride, g.pad
	p := dwPlan{npix: oh * ow, ntaps: g.kh * g.kw}
	p.xpW = w + 2*pad
	p.gOffY, p.gOffX = (g.kh-1)*d-pad, (g.kw-1)*d-pad
	p.gpW = w + (g.kw-1)*d
	npixPad, ntapsPad, resPix := roundUp4(p.npix), roundUp4(p.ntaps), roundUp4(p.npix)
	if backward {
		resPix = max(resPix, roundUp4(h*w))
	}
	p.xp, p.wl, p.res = ar.Floats((h+2*pad)*p.xpW*L), ar.Floats(ntapsPad*L), ar.Floats(resPix*L)
	clear(p.xp)
	p.xpix, p.ftaps = ar.Ints(npixPad), ar.Ints(ntapsPad)
	clear(p.ftaps) // padding taps read offset 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			p.xpix[oy*ow+ox] = (oy*s*p.xpW + ox*s) * L
		}
	}
	// Table padding repeats a valid entry; the extra results are ignored.
	for i := p.npix; i < len(p.xpix); i++ {
		p.xpix[i] = p.xpix[0]
	}
	for ky := 0; ky < g.kh; ky++ {
		for kx := 0; kx < g.kw; kx++ {
			p.ftaps[ky*g.kw+kx] = (ky*d*p.xpW + kx*d) * L
		}
	}
	if !backward {
		return p
	}
	p.gp, p.gwl = ar.Floats((h+(g.kh-1)*d)*p.gpW*L), ar.Floats(ntapsPad*L)
	clear(p.gp)
	p.gpix, p.gxpix, p.btaps = ar.Ints(p.npix), ar.Ints(roundUp4(h*w)), ar.Ints(p.ntaps)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			p.gpix[oy*ow+ox] = ((oy*s+p.gOffY)*p.gpW + ox*s + p.gOffX) * L
		}
	}
	for iy := 0; iy < h; iy++ {
		for ix := 0; ix < w; ix++ {
			p.gxpix[iy*w+ix] = ((iy+pad+p.gOffY)*p.gpW + ix + pad + p.gOffX) * L
		}
	}
	for i := h * w; i < len(p.gxpix); i++ {
		p.gxpix[i] = p.gxpix[0]
	}
	for ky := 0; ky < g.kh; ky++ {
		for kx := 0; kx < g.kw; kx++ {
			p.btaps[ky*g.kw+kx] = -(ky*d*p.gpW + kx*d) * L
		}
	}
	return p
}

// laneGroup returns the group of four of c channels (or planes) that starts
// at ch, pulled back to [c-4, c) where it would run past c, and skip, how
// many of its channels the group before it covered. Overlapped channels are
// recomputed with the same chains, so rewriting them keeps every bit;
// whatever accumulates skips them. With c < 4 the group is [0, c), its
// spare lanes repeating channel c-1.
func laneGroup(ch, c int) (ch0, skip int) {
	if ch+tensor.DWLanes <= c || c < tensor.DWLanes {
		return ch, 0
	}
	return c - tensor.DWLanes, ch + tensor.DWLanes - c
}

// padLanes returns n blocks of c planes of sz elements in d as the lane
// kernels read them, four consecutive planes at a time: d itself where a
// block has at least four planes, else a copy in storage taken from ar that
// widens each block to four, its spare lanes repeating the block's last
// plane. (A depthwise layer pads each image's channels; a pool pads its N·C
// planes as one block.)
func padLanes(ar *tensor.Arena, d []float64, n, c, sz int) []float64 {
	const L = tensor.DWLanes
	if c >= L {
		return d
	}
	p := ar.Floats(n * L * sz)
	for b := 0; b < n; b++ {
		for l := 0; l < L; l++ {
			q := (b*c + min(l, c-1)) * sz
			copy(p[(b*L+l)*sz:(b*L+l+1)*sz], d[q:q+sz])
		}
	}
	return p
}

// unpadLanes copies the first c planes of each of padLanes' n blocks back
// to d.
func unpadLanes(d, p []float64, n, c, sz int) {
	for b := 0; b < n; b++ {
		copy(d[b*c*sz:(b+1)*c*sz], p[b*tensor.DWLanes*sz:])
	}
}

// loadLaneWeights interleaves the ntaps-long filters of channels
// ch0..ch0+3 of c in wd into wl, [tap][lane], a channel past the last
// repeating the last.
func loadLaneWeights(wl, wd []float64, ntaps, ch0, c int) {
	for l := 0; l < tensor.DWLanes; l++ {
		ch := min(ch0+l, c-1)
		f := wd[ch*ntaps : (ch+1)*ntaps]
		for t, v := range f {
			wl[t*tensor.DWLanes+l] = v
		}
	}
}

// forwardDepthwise computes every output channel through the lane kernel,
// four channels of one image at a time, in the groups laneGroup gives; the
// weights are interleaved once per group of channels. A layer of fewer than
// four channels runs on padLanes' copies.
func (c *Conv2D) forwardDepthwise(ar *tensor.Arena, x, out *tensor.Tensor) {
	const L = tensor.DWLanes
	n, _, h, w := mustDims4(x, "Conv2D")
	oh, ow := out.Dim(2), out.Dim(3)
	defer ar.Release(ar.Mark())
	p := dwPlanFor(ar, c.geom(), h, w, oh, ow, false)
	C, cs, hw := c.OutC, max(c.OutC, L), h*w
	xd, od, wd := padLanes(ar, x.Data(), n, C, hw), out.Data(), c.weight.Value.Data()
	if C < L {
		od = ar.Floats(n * L * p.npix)
	}
	xorg := c.Pad*p.xpW + c.Pad
	taps := p.ftaps[:p.ntaps]
	for ch := 0; ch < C; ch += L {
		ch0, _ := laneGroup(ch, C)
		loadLaneWeights(p.wl, wd, p.ntaps, ch0, C)
		for b := 0; b < n; b++ {
			c.loadInput(p.xp, xorg, p.xpW, xd[(b*cs+ch0)*hw:], h, w)
			tensor.DWTaps(p.res, p.xp, p.xpix, taps, p.wl)
			tensor.DWDeinterleave(od[(b*cs+ch0)*p.npix:], p.res, p.npix)
		}
	}
	if C < L {
		unpadLanes(out.Data(), od, n, C, p.npix)
	}
}

// loadInput interleaves four input planes into xp at org, rectifying them
// when the layer applies the ReLU ahead of it. The rectified span runs from
// the first interior element to the last, so it takes in the side borders
// between rows, which hold +0 and stay so.
func (c *Conv2D) loadInput(xp []float64, org, xpW int, src []float64, h, w int) {
	const L = tensor.DWLanes
	tensor.DWInterleave(xp, org, xpW, 1, src, h, w)
	if c.reluIn {
		in := xp[org*L : (org+(h-1)*xpW+w)*L]
		tensor.ReLU(in, in)
	}
}

// backwardDepthwise accumulates the weight gradient of every channel, each
// image's sums in image order, and writes the input gradient into gxd
// (the input's layout; unmasked: the caller applies reluIn's mask).
func (c *Conv2D) backwardDepthwise(ar *tensor.Arena, x, grad *tensor.Tensor, gxd []float64) {
	const L = tensor.DWLanes
	n, _, h, w := mustDims4(x, "Conv2D")
	oh, ow := grad.Dim(2), grad.Dim(3)
	defer ar.Release(ar.Mark())
	p := dwPlanFor(ar, c.geom(), h, w, oh, ow, true)
	C, cs, hw := c.OutC, max(c.OutC, L), h*w
	xd, gd := padLanes(ar, x.Data(), n, C, hw), padLanes(ar, grad.Data(), n, C, p.npix)
	out, wd, gwd := gxd, c.weight.Value.Data(), c.weight.Grad.Data()
	if C < L {
		gxd = ar.Floats(n * L * hw)
	}
	xorg := c.Pad*p.xpW + c.Pad
	gorg := p.gOffY*p.gpW + p.gOffX
	s := c.Stride
	for ch := 0; ch < C; ch += L {
		ch0, skip := laneGroup(ch, C)
		loadLaneWeights(p.wl, wd, p.ntaps, ch0, C)
		for b := 0; b < n; b++ {
			c.loadInput(p.xp, xorg, p.xpW, xd[(b*cs+ch0)*hw:], h, w)
			tensor.DWInterleave(p.gp, gorg, s*p.gpW, s, gd[(b*cs+ch0)*p.npix:], oh, ow)

			tensor.DWGradW(p.gwl, p.gp, p.gpix, p.xp, p.xpix[:p.npix], p.ftaps)
			for l := skip; l < min(L, C-ch0); l++ {
				gw := gwd[(ch0+l)*p.ntaps : (ch0+l+1)*p.ntaps]
				for t := range gw {
					gw[t] += p.gwl[t*L+l]
				}
			}

			tensor.DWTaps(p.res, p.gp, p.gxpix, p.btaps, p.wl)
			tensor.DWDeinterleave(gxd[(b*cs+ch0)*hw:], p.res, hw)
		}
	}
	if C < L {
		unpadLanes(out, gxd, n, C, hw)
	}
}
